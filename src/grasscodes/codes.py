"""Linear [n,k]-codes over GF(q) and their strength classification.

A code is a k-subspace of F_q^n carried by a canonical RREF generator
matrix.  The central quantity is the minimum distance of the dual code:
a code has *strength* t when every nonzero dual word has weight at least
t+1, equivalently when every t columns of a generator matrix are
linearly independent, equivalently when the code meets every
coordinate subspace of codimension t in dimension exactly k - t.  All
three criteria are implemented and exposed so they can be checked
against each other.

Strength echelons recover the classical families: strength >= 1 is
non-degenerate, >= 2 projective, and strength k exactly the MDS codes.

Monomial maps (coordinate permutation composed with nonzero column
scalings) act on codes and preserve all of the above.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Literal, Sequence

from .errors import (
    BadIndicesError,
    BadTError,
    DimensionMismatchError,
    ParseError,
    TooLargeExactError,
)
from .gf import FieldCtx, field_of_order
from .linalg import MatrixGF, Subspace, intersect, kernel, rref

INFINITE = math.inf

EXACT_WORD_CAP = 1 << 24
_BULK_THRESHOLD = 1 << 12

Criterion = Literal["dual_distance", "columns", "coord_meet"]
CRITERIA: tuple[Criterion, ...] = ("dual_distance", "columns", "coord_meet")


# -- vectors ------------------------------------------------------------------

def weight(v: Sequence[int]) -> int:
    """Number of nonzero coordinates."""
    return sum(1 for x in v if x)


# -- coordinate subspaces -----------------------------------------------------

def coordinate_subspace(ctx: FieldCtx, n: int, indices: Iterable[int]) -> Subspace:
    """Vectors of F_q^n vanishing at the given (1-based, strictly
    increasing) coordinates, of dimension n - len(indices).

    Its basis is the unit vectors of the other coordinates in order,
    which is already RREF, so no elimination is run."""
    idx = tuple(indices)
    if any(not 1 <= i <= n for i in idx) or any(a >= b for a, b in zip(idx, idx[1:])):
        raise BadIndicesError(f"indices {idx} not strictly increasing in [1, {n}]")
    coords = range(1, n + 1)
    rows = tuple(tuple(int(j == p) for j in coords) for p in coords if p not in idx)
    return Subspace(ctx, n, MatrixGF._trusted(ctx, rows, n))


# -- monomial maps --------------------------------------------------------------

@dataclass(frozen=True)
class MonomialMap:
    """Coordinate permutation plus nonzero column scalars.

    Source column j lands at position perm[j] (0-based) scaled by
    scalars[j]; permutation first, scaling attached to the source index.
    """

    ctx: FieldCtx
    perm: tuple[int, ...]
    scalars: tuple[int, ...]

    def __post_init__(self):
        n = len(self.perm)
        if sorted(self.perm) != list(range(n)):
            raise DimensionMismatchError("perm is not a permutation")
        q = self.ctx.q
        if len(self.scalars) != n or any(not 1 <= s < q for s in self.scalars):
            raise DimensionMismatchError(f"need {n} nonzero scalars in [1, {q})")

    @property
    def n(self) -> int:
        return len(self.perm)

    @classmethod
    def identity(cls, ctx: FieldCtx, n: int) -> "MonomialMap":
        return cls(ctx, tuple(range(n)), (1,) * n)

    def apply_to_matrix(self, m: MatrixGF) -> MatrixGF:
        if m.ncols != self.n or m.ctx != self.ctx:
            raise DimensionMismatchError("matrix shape/field does not match map")
        ctx = self.ctx
        out = [[0] * self.n for _ in range(m.nrows)]
        for j, (dest, s) in enumerate(zip(self.perm, self.scalars)):
            for i in range(m.nrows):
                out[i][dest] = ctx.mul(s, m.rows[i][j])
        return MatrixGF._trusted(ctx, tuple(map(tuple, out)), self.n)

    def compose(self, other: "MonomialMap") -> "MonomialMap":
        """self ∘ other: apply other first, then self."""
        if other.n != self.n or other.ctx != self.ctx:
            raise DimensionMismatchError("cannot compose maps on different spaces")
        ctx = self.ctx
        perm = tuple(self.perm[other.perm[j]] for j in range(self.n))
        scalars = tuple(
            ctx.mul(other.scalars[j], self.scalars[other.perm[j]]) for j in range(self.n)
        )
        return MonomialMap(ctx, perm, scalars)

    def inverse(self) -> "MonomialMap":
        n = self.n
        perm = [0] * n
        scalars = [1] * n
        for j in range(n):
            perm[self.perm[j]] = j
            scalars[self.perm[j]] = self.ctx.inv(self.scalars[j])
        return MonomialMap(self.ctx, tuple(perm), tuple(scalars))


# -- linear codes -----------------------------------------------------------------

class LinearCode:
    """A linear code: a subspace of F_q^n with coding-theoretic accessors.

    Classification caches (dual minimum distance, strength) are write-once.
    """

    __slots__ = ("space", "_dual_min_distance", "_strength")

    def __init__(self, space: Subspace):
        self.space = space
        self._dual_min_distance = None
        self._strength = None

    @classmethod
    def from_generator(cls, ctx: FieldCtx, rows: Iterable[Sequence[int]], n: int | None = None) -> "LinearCode":
        vecs = [tuple(r) for r in rows]
        if n is None:
            if not vecs:
                raise DimensionMismatchError("empty generator needs explicit n")
            n = len(vecs[0])
        return cls(Subspace.from_vectors(ctx, n, vecs))

    @property
    def ctx(self) -> FieldCtx:
        return self.space.ctx

    @property
    def n(self) -> int:
        return self.space.ambient_dim

    @property
    def k(self) -> int:
        return self.space.dim

    @property
    def generator(self) -> MatrixGF:
        return self.space.basis

    def __eq__(self, other):
        return isinstance(other, LinearCode) and self.space == other.space

    def __hash__(self):
        return hash(self.space)

    def __repr__(self):
        return f"LinearCode[{self.n},{self.k}]q{self.ctx.q}"


def dual(c: LinearCode) -> LinearCode:
    """The orthogonal code under the standard bilinear form; dim n - k."""
    return LinearCode(kernel(c.generator))


def min_distance(c: LinearCode, max_words: int = EXACT_WORD_CAP):
    """Exact minimum weight over nonzero codewords, by full enumeration.

    The zero code has no nonzero word; by convention its distance is
    INFINITE, which keeps every strength threshold satisfied.
    Raises TooLargeExactError when q^k exceeds max_words.
    """
    k = c.k
    if k == 0:
        return INFINITE
    q = c.ctx.q
    total = q**k
    if total > max_words:
        raise TooLargeExactError(f"q^k = {total} exceeds exact enumeration cap {max_words}")
    if total > _BULK_THRESHOLD and q <= 256:
        from . import bulk

        return bulk.min_weight_in_span(c.ctx, [list(r) for r in c.generator.rows])
    best = c.n + 1
    for v in c.space.vectors():
        w = weight(v)
        if 0 < w < best:
            best = w
            if best == 1:
                break
    return best


def dual_min_distance(c: LinearCode):
    """Minimum distance of the dual code, cached on the code; raises
    TooLargeExactError above EXACT_WORD_CAP dual words."""
    if c._dual_min_distance is None:
        c._dual_min_distance = min_distance(dual(c))
    return c._dual_min_distance


# -- strength classification ---------------------------------------------------

def column_rank(ctx: FieldCtx, rows: Sequence[Sequence[int]], cols: Sequence[int]) -> int:
    """Rank of the columns `cols` of a generator with rows `rows`.

    k minus it is the dimension of the code's meet with the coordinate
    subspace zeroing `cols`."""
    sub = tuple(tuple(r[j] for j in cols) for r in rows)
    _, rank = rref(MatrixGF._trusted(ctx, sub, len(cols)))
    return rank


def has_strength(c: LinearCode, t: int, criterion: Criterion = "dual_distance") -> bool:
    """Whether every t columns of the generator are independent.

    Three equivalent routes, selectable so they can be cross-checked:
    dual_distance (dual minimum distance >= t+1), columns (rank of every
    t-column submatrix), coord_meet (dim of the meet with every
    codimension-t coordinate subspace equals k - t).
    """
    n = c.n
    if not 1 <= t <= n:
        raise BadTError(f"t must be in [1, {n}], got {t}")
    if criterion == "dual_distance":
        return dual_min_distance(c) >= t + 1
    if criterion == "columns":
        rows = c.generator.rows
        return all(
            column_rank(c.ctx, rows, cols) == t
            for cols in itertools.combinations(range(n), t)
        )
    if criterion == "coord_meet":
        for idx in itertools.combinations(range(1, n + 1), t):
            if intersect(c.space, coordinate_subspace(c.ctx, n, idx)).dim != c.k - t:
                return False
        return True
    raise ValueError(f"unknown criterion {criterion!r}")


def strength(c: LinearCode) -> int:
    """Largest t <= k with strength t (0 = degenerate), cached on the code.

    Found by the t-column test of `has_strength` for t = 1, 2, ... (every
    t columns independent implies every t - 1 are).  It equals the dual
    minimum distance minus 1 (INFINITE capping at k) with no dual
    codeword enumeration.  Membership in the strength-t class is the
    single t-column test; this scan is for reporting the value.
    """
    if c._strength is None:
        t = 0
        while t < c.k and has_strength(c, t + 1, "columns"):
            t += 1
        c._strength = t
    return c._strength


def classify(c: LinearCode) -> dict:
    """Classification summary used by the CLI."""
    t_max = strength(c)
    dmd = dual_min_distance(c)
    return {
        "q": c.ctx.q,
        "n": c.n,
        "k": c.k,
        "strength": t_max,
        "dual_min_distance": None if dmd == INFINITE else int(dmd),
        "degenerate": t_max == 0,
        "projective": t_max >= 2,
        "mds": c.k >= 1 and t_max == c.k,
    }


def apply_monomial(m: MonomialMap, c: LinearCode) -> LinearCode:
    """Image code; parameters and strength are preserved."""
    if m.n != c.n or m.ctx != c.ctx:
        raise DimensionMismatchError("map and code live in different spaces")
    return LinearCode(Subspace._row_space(c.ctx, c.n, m.apply_to_matrix(c.generator).rows))


# -- generator-matrix text format -----------------------------------------------

def format_generator(c: LinearCode) -> str:
    """Shared text format: 'q n k' header then k rows of encodings."""
    lines = [f"{c.ctx.q} {c.n} {c.k}"]
    for r in c.generator.rows:
        lines.append(" ".join(str(x) for x in r))
    return "\n".join(lines) + "\n"


def parse_generator(text: str) -> LinearCode:
    """Parse the shared text format ('#' lines are comments)."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ParseError("empty generator file")
    head = lines[0].split()
    if len(head) != 3:
        raise ParseError(f"header must be 'q n k', got {lines[0]!r}")
    try:
        q, n, k = (int(x) for x in head)
    except ValueError as exc:
        raise ParseError(f"non-integer header: {lines[0]!r}") from exc
    if k < 1 or n < 1 or k > n:
        raise ParseError(f"need 1 <= k <= n, got n={n} k={k}")
    try:
        ctx = field_of_order(q)
    except Exception as exc:
        raise ParseError(f"bad field order {q}: {exc}") from exc
    if len(lines) - 1 != k:
        raise ParseError(f"expected {k} generator rows, found {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        try:
            row = [int(x) for x in ln.split()]
        except ValueError as exc:
            raise ParseError(f"non-integer entry in row {ln!r}") from exc
        if len(row) != n:
            raise ParseError(f"row {ln!r} has {len(row)} entries, expected {n}")
        if any(not 0 <= x < q for x in row):
            raise ParseError(f"entry outside [0, {q}) in row {ln!r}")
        rows.append(row)
    code = LinearCode.from_generator(ctx, rows, n=n)
    if code.k != k:
        raise ParseError(f"generator rows are dependent: rank {code.k} < k={k}")
    return code
