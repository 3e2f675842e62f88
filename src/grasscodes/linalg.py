"""Dense matrices and subspaces over GF(q).

Subspaces are kept in reduced row echelon form, which is unique per
subspace, so equality, hashing and enumeration order are all defined by
the RREF basis entries.  The zero subspace is a first-class value (a
basis with no rows and an explicit ambient dimension).

Each linear-algebra job has one exact routine: `rref` (row space, rank),
`kernel` (right null space), `subspace_sum` (one RREF of the stacked
bases) and `intersect` (one RREF of the Zassenhaus matrix [[A, A], [B, 0]],
whose rows with a vanishing left half hold the meet's RREF basis).  Each
scalar fact is read from the one elimination that produces it: a meet's
dimension identity from its own Zassenhaus RREF, and a containment from
the coordinates over the outer basis that the caller needs anyway
(`complement_basis`, `hyperplanes_containing`).  Hyperplanes of a
subspace are written down in closed form from their functionals, with no
kernel computation per hyperplane.  Those functionals, like the coset
representatives of a construction step, are the projective combinations
of a basis (`projective_combinations`).

Entries are validated where they enter, by `MatrixGF(...)` and so by
`Subspace.from_vectors` (and `kernel`, which spans through it).  Rows
derived from valid ones are not re-checked: RREFs, stacks and Zassenhaus
meets are wrapped by `MatrixGF._trusted`, and derived spans (sums and
hyperplanes) are reduced by `Subspace._row_space`.

Everything here is immutable after construction and pure, sized for
exact desk-scale work: ambient dimensions in the tens, not thousands.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .errors import (
    AmbientMismatchError,
    DimensionMismatchError,
    InternalInvariantError,
    NotSubspaceError,
)
from .gf import FieldCtx

Vector = tuple[int, ...]


def projective_reps(ctx: FieldCtx, dim: int) -> Iterator[Vector]:
    """Canonical representatives of the 1-subspaces of F_q^dim.

    Yields every nonzero vector whose first nonzero entry is 1, ordered by
    the base-q integer encoding of the coordinate tuple (first coordinate
    least significant).  Exactly q_int(dim, q) vectors.
    """
    q = ctx.q
    for enc in range(1, q**dim):
        digits = []
        v = enc
        for _ in range(dim):
            digits.append(v % q)
            v //= q
        first = next(d for d in digits if d)
        if first == 1:
            yield tuple(digits)


def projective_combinations(ctx: FieldCtx, rows: Sequence[Vector]) -> Iterator[Vector]:
    """The combination sum_i lam_i rows_i for each lam of
    `projective_reps(ctx, len(rows))`, in that order: one vector per
    1-subspace of the span when the rows are independent."""
    for lam in projective_reps(ctx, len(rows)):
        v = [0] * len(rows[0])
        for li, row in zip(lam, rows):
            if li:
                v = [ctx.add(a, ctx.mul(li, b)) for a, b in zip(v, row)]
        yield tuple(v)


# -- matrices ---------------------------------------------------------------

class MatrixGF:
    """Dense row-major matrix over a FieldCtx; rows may be empty.

    The constructor checks the shape and that every entry is in [0, q)."""

    __slots__ = ("ctx", "rows", "nrows", "ncols")

    def __init__(self, ctx: FieldCtx, rows: Iterable[Iterable[int]], ncols: int | None = None):
        self.ctx = ctx
        self.rows: tuple[Vector, ...] = tuple(tuple(int(x) for x in r) for r in rows)
        self.nrows = len(self.rows)
        if self.nrows:
            self.ncols = len(self.rows[0])
            if any(len(r) != self.ncols for r in self.rows):
                raise DimensionMismatchError("ragged rows")
            if ncols is not None and ncols != self.ncols:
                raise DimensionMismatchError("ncols disagrees with row length")
        else:
            if ncols is None:
                raise DimensionMismatchError("empty matrix needs explicit ncols")
            self.ncols = ncols
        q = ctx.q
        for r in self.rows:
            for x in r:
                if not 0 <= x < q:
                    raise ValueError(f"entry {x} outside GF({q}) encoding range")

    @classmethod
    def _trusted(cls, ctx: FieldCtx, rows: tuple[Vector, ...], ncols: int) -> "MatrixGF":
        """Trusting constructor for a matrix derived from valid ones: rows
        must be int tuples of length ncols with entries in [0, q)."""
        m = object.__new__(cls)
        m.ctx, m.rows, m.nrows, m.ncols = ctx, rows, len(rows), ncols
        return m

    @classmethod
    def identity(cls, ctx: FieldCtx, n: int) -> "MatrixGF":
        return cls(ctx, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def stack(self, other: "MatrixGF") -> "MatrixGF":
        if other.ncols != self.ncols or other.ctx != self.ctx:
            raise AmbientMismatchError("cannot stack matrices of different shape/field")
        return MatrixGF._trusted(self.ctx, self.rows + other.rows, self.ncols)

    def __eq__(self, other):
        return (
            isinstance(other, MatrixGF)
            and self.ctx == other.ctx
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.ctx, self.ncols, self.rows))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in r) for r in self.rows)
        return f"MatrixGF({self.ctx}, {self.nrows}x{self.ncols}: {body})"


def rref(m: MatrixGF) -> tuple[MatrixGF, int]:
    """Reduced row echelon form and rank.  Row space is preserved."""
    ctx = m.ctx
    rows = [list(r) for r in m.rows]
    nrows, ncols = m.nrows, m.ncols
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        f = ctx.inv(rows[r][c])
        if f != 1:
            rows[r] = [ctx.mul(f, x) for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                g = ctx.neg(rows[i][c])
                rows[i] = [ctx.add(x, ctx.mul(g, y)) for x, y in zip(rows[i], rows[r])]
        r += 1
        if r == nrows:
            break
    return MatrixGF._trusted(ctx, tuple(map(tuple, rows)), ncols), r


def _pivot_columns(rref_rows: Sequence[Sequence[int]], rank: int) -> list[int]:
    pivots = []
    for i in range(rank):
        pivots.append(next(j for j, x in enumerate(rref_rows[i]) if x))
    return pivots


# -- subspaces ---------------------------------------------------------------

class Subspace:
    """A subspace of F_q^n with a canonical RREF basis (no zero rows)."""

    __slots__ = ("ctx", "ambient_dim", "basis", "dim")

    def __init__(self, ctx: FieldCtx, ambient_dim: int, basis: MatrixGF):
        """Trusting constructor: basis must already be RREF with full row rank.
        Use from_vectors() for arbitrary spanning sets."""
        self.ctx = ctx
        self.ambient_dim = ambient_dim
        self.basis = basis
        self.dim = basis.nrows

    @classmethod
    def from_vectors(cls, ctx: FieldCtx, ambient_dim: int, vectors: Iterable[Sequence[int]]) -> "Subspace":
        return cls._row_space(ctx, ambient_dim, MatrixGF(ctx, vectors, ncols=ambient_dim).rows)

    @classmethod
    def _row_space(cls, ctx: FieldCtx, ambient_dim: int, rows: tuple[Vector, ...]) -> "Subspace":
        """Span of int-tuple rows already validated or derived from valid ones."""
        red, rank = rref(MatrixGF._trusted(ctx, rows, ambient_dim))
        return cls(ctx, ambient_dim, MatrixGF._trusted(ctx, red.rows[:rank], ambient_dim))

    @classmethod
    def zero(cls, ctx: FieldCtx, ambient_dim: int) -> "Subspace":
        return cls(ctx, ambient_dim, MatrixGF._trusted(ctx, (), ambient_dim))

    @classmethod
    def full(cls, ctx: FieldCtx, ambient_dim: int) -> "Subspace":
        return cls(ctx, ambient_dim, MatrixGF.identity(ctx, ambient_dim))

    # -- membership ----------------------------------------------------------

    def coords_of(self, v: Sequence[int]) -> Vector | None:
        """Coefficients of v over the basis, or None if v is outside."""
        ctx = self.ctx
        coeffs = tuple(v[p] for p in _pivot_columns(self.basis.rows, self.dim))
        residual = list(v)
        for c, row in zip(coeffs, self.basis.rows):
            if c:
                g = ctx.neg(c)
                residual = [ctx.add(x, ctx.mul(g, y)) for x, y in zip(residual, row)]
        if any(residual):
            return None
        return coeffs

    def contains_vector(self, v: Sequence[int]) -> bool:
        return self.coords_of(v) is not None

    def contains(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        return all(self.contains_vector(r) for r in other.basis.rows)

    def vectors(self) -> Iterator[Vector]:
        """All q^dim vectors (small oracles only)."""
        ctx = self.ctx
        q = ctx.q
        rows = self.basis.rows
        for enc in range(q**self.dim):
            v = [0] * self.ambient_dim
            rem = enc
            for row in rows:
                d = rem % q
                rem //= q
                if d:
                    v = [ctx.add(x, ctx.mul(d, y)) for x, y in zip(v, row)]
            yield tuple(v)

    def _check_ambient(self, other: "Subspace") -> None:
        if self.ctx != other.ctx or self.ambient_dim != other.ambient_dim:
            raise AmbientMismatchError("subspaces live in different spaces")

    # -- identity --------------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ctx == other.ctx
            and self.ambient_dim == other.ambient_dim
            and self.basis.rows == other.basis.rows
        )

    def __hash__(self):
        return hash((self.ctx, self.ambient_dim, self.basis.rows))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of F_{self.ctx.q}^{self.ambient_dim})"


def kernel(m: MatrixGF) -> Subspace:
    """Right kernel {v : m v^T = 0}, dimension ncols - rank."""
    red, rank = rref(m)
    pivots = _pivot_columns(red.rows, rank)
    pivot_set = set(pivots)
    ctx = m.ctx
    free = [j for j in range(m.ncols) if j not in pivot_set]
    vecs = []
    for f in free:
        v = [0] * m.ncols
        v[f] = 1
        for i, p in enumerate(pivots):
            v[p] = ctx.neg(red.rows[i][f])
        vecs.append(v)
    return Subspace.from_vectors(ctx, m.ncols, vecs)


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    a._check_ambient(b)
    return Subspace._row_space(a.ctx, a.ambient_dim, a.basis.rows + b.basis.rows)


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """a ∩ b by Zassenhaus: one RREF of the rows [a_i | a_i] and [b_j | 0].

    The rows of the result with a nonzero left half span a + b; those
    whose left half vanishes carry, in their right half, the RREF basis of
    the meet.  The stacked rows are independent, so the same elimination
    must have rank dim a + dim b, which is dim(a + b) + dim(a ∩ b): that
    is re-checked on every call.
    """
    a._check_ambient(b)
    ctx, n = a.ctx, a.ambient_dim
    zeros = (0,) * n
    stacked = tuple(r + r for r in a.basis.rows) + tuple(r + zeros for r in b.basis.rows)
    red, rank = rref(MatrixGF._trusted(ctx, stacked, 2 * n))
    if rank != a.dim + b.dim:
        raise InternalInvariantError("modular dimension identity failed in intersect")
    meet = tuple(r[n:] for r in red.rows[:rank] if not any(r[:n]))
    return Subspace(ctx, n, MatrixGF._trusted(ctx, meet, n))


def _coords_within(outer: Subspace, inner: Subspace, error: str) -> tuple[Vector, ...]:
    """Coordinates of inner's basis rows over outer's basis; raises
    NotSubspaceError(error) unless inner ⊆ outer."""
    outer._check_ambient(inner)
    coords = tuple(outer.coords_of(r) for r in inner.basis.rows)
    if None in coords:
        raise NotSubspaceError(error)
    return coords


def complement_basis(inner: Subspace, outer: Subspace) -> list[Vector]:
    """Rows of outer's RREF basis completing a basis of inner to one of outer.

    Deterministic: row i of outer is kept unless some vector of inner has
    its last nonzero coordinate over outer's basis at i, i.e. unless i is
    a pivot of inner's coordinates read right to left.  Those are exactly
    the rows a scan in order drops for lying in the span of inner and the
    rows before them.  Requires inner ⊆ outer.
    """
    coords = _coords_within(outer, inner, "inner is not contained in outer")
    k = outer.dim
    red, rank = rref(MatrixGF._trusted(inner.ctx, tuple(c[::-1] for c in coords), k))
    dropped = {k - 1 - p for p in _pivot_columns(red.rows, rank)}
    return [row for i, row in enumerate(outer.basis.rows) if i not in dropped]


def hyperplanes_containing(x: Subspace, u: Subspace) -> Iterator[Subspace]:
    """All codimension-1 subspaces of x that contain u, deterministically.

    Yields exactly q_int(dim x - dim u, q) distinct hyperplanes; each is the
    kernel inside x of a linear functional c (coordinates over x's basis)
    vanishing on u, spanned in closed form by x_j - (c_j / c_p) x_p for
    j != p, p the first nonzero of c.  The functionals are the
    `projective_combinations` of a basis of the solution space, in order.
    """
    u_coords = _coords_within(x, u, "u is not contained in x")
    if u.dim > x.dim - 1:
        raise NotSubspaceError("u must have codimension at least 1 in x")
    ctx = x.ctx
    k = x.dim
    w = kernel(MatrixGF._trusted(ctx, u_coords, k))  # functionals on x vanishing on u
    xrows = x.basis.rows
    for c in projective_combinations(ctx, w.basis.rows):
        p = next(j for j, cj in enumerate(c) if cj)
        inv_p = ctx.inv(c[p])
        h_rows = []
        for j in range(k):
            if j != p:
                f = ctx.neg(ctx.mul(c[j], inv_p))
                h_rows.append(tuple(ctx.add(a, ctx.mul(f, b)) for a, b in zip(xrows[j], xrows[p])))
        yield Subspace._row_space(ctx, x.ambient_dim, tuple(h_rows))


# -- counting ------------------------------------------------------------------

def q_int(m: int, q: int) -> int:
    """The q-integer [m]_q = (q^m - 1)/(q - 1): points of PG(m-1, q)."""
    if m < 0:
        raise ValueError("m must be >= 0")
    return (q**m - 1) // (q - 1)


def subspace_count(n: int, k: int, q: int) -> int:
    """Gaussian binomial coefficient: number of k-subspaces of F_q^n."""
    if k < 0 or k > n:
        return 0
    num = 1
    den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den
