"""Dense matrices and subspaces over GF(q).

Subspaces are kept in reduced row echelon form, which is unique per
subspace, so equality, hashing and enumeration order are all defined by
the RREF basis entries.  The zero subspace is a first-class value (a
basis with no rows and an explicit ambient dimension).

Each linear-algebra job has one exact routine: `rref` (row space, rank),
`kernel` (right null space), `subspace_sum` (one RREF of the stacked
bases) and `intersect` (one RREF of the Zassenhaus matrix [[A, A], [B, 0]],
whose rows with a vanishing left half hold the meet's RREF basis).
Hyperplanes of a subspace are written down in closed form from their
functionals, with no kernel computation per hyperplane.

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


# -- matrices ---------------------------------------------------------------

class MatrixGF:
    """Dense row-major matrix over a FieldCtx; rows may be empty."""

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
    def identity(cls, ctx: FieldCtx, n: int) -> "MatrixGF":
        return cls(ctx, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def stack(self, other: "MatrixGF") -> "MatrixGF":
        if other.ncols != self.ncols or other.ctx != self.ctx:
            raise AmbientMismatchError("cannot stack matrices of different shape/field")
        return MatrixGF(self.ctx, self.rows + other.rows, ncols=self.ncols)

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
                g = rows[i][c]
                rows[i] = [ctx.sub(x, ctx.mul(g, y)) for x, y in zip(rows[i], rows[r])]
        r += 1
        if r == nrows:
            break
    return MatrixGF(ctx, rows, ncols=ncols), r


def _pivot_columns(rref_rows: Sequence[Sequence[int]], rank: int) -> list[int]:
    pivots = []
    for i in range(rank):
        pivots.append(next(j for j, x in enumerate(rref_rows[i]) if x))
    return pivots


# -- subspaces ---------------------------------------------------------------

class Subspace:
    """A subspace of F_q^n with a canonical RREF basis (no zero rows)."""

    __slots__ = ("ctx", "ambient_dim", "basis", "dim", "_pivots")

    def __init__(self, ctx: FieldCtx, ambient_dim: int, basis: MatrixGF):
        """Trusting constructor: basis must already be RREF with full row rank.
        Use from_vectors() for arbitrary spanning sets."""
        self.ctx = ctx
        self.ambient_dim = ambient_dim
        self.basis = basis
        self.dim = basis.nrows
        self._pivots = _pivot_columns(basis.rows, basis.nrows)

    @classmethod
    def from_vectors(cls, ctx: FieldCtx, ambient_dim: int, vectors: Iterable[Sequence[int]]) -> "Subspace":
        m = MatrixGF(ctx, vectors, ncols=ambient_dim)
        red, rank = rref(m)
        return cls(ctx, ambient_dim, MatrixGF(ctx, red.rows[:rank], ncols=ambient_dim))

    @classmethod
    def zero(cls, ctx: FieldCtx, ambient_dim: int) -> "Subspace":
        return cls(ctx, ambient_dim, MatrixGF(ctx, [], ncols=ambient_dim))

    @classmethod
    def full(cls, ctx: FieldCtx, ambient_dim: int) -> "Subspace":
        return cls(ctx, ambient_dim, MatrixGF.identity(ctx, ambient_dim))

    # -- membership ----------------------------------------------------------

    def coords_of(self, v: Sequence[int]) -> Vector | None:
        """Coefficients of v over the basis, or None if v is outside."""
        ctx = self.ctx
        coeffs = tuple(v[p] for p in self._pivots)
        residual = list(v)
        for c, row in zip(coeffs, self.basis.rows):
            if c:
                residual = [ctx.sub(x, ctx.mul(c, y)) for x, y in zip(residual, row)]
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
    return Subspace.from_vectors(a.ctx, a.ambient_dim, a.basis.rows + b.basis.rows)


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """a ∩ b by Zassenhaus: one RREF of the rows [a_i | a_i] and [b_j | 0].

    The rows of the result whose left half vanishes carry, in their right
    half, the RREF basis of the meet.  dim(a ∩ b) + dim(a + b) = dim a +
    dim b is re-checked against an independently computed sum.
    """
    a._check_ambient(b)
    ctx, n = a.ctx, a.ambient_dim
    zeros = (0,) * n
    stacked = [r + r for r in a.basis.rows] + [r + zeros for r in b.basis.rows]
    red, rank = rref(MatrixGF(ctx, stacked, ncols=2 * n))
    meet = [r[n:] for r in red.rows[:rank] if not any(r[:n])]
    result = Subspace(ctx, n, MatrixGF(ctx, meet, ncols=n))
    if result.dim + subspace_sum(a, b).dim != a.dim + b.dim:
        raise InternalInvariantError("modular dimension identity failed in intersect")
    return result


def complement_basis(inner: Subspace, outer: Subspace) -> list[Vector]:
    """Rows of outer's RREF basis completing a basis of inner to one of outer.

    Deterministic: scans outer's canonical basis rows in order and keeps
    those that grow the span.  Requires inner ⊆ outer.
    """
    if not outer.contains(inner):
        raise NotSubspaceError("inner is not contained in outer")
    ctx = inner.ctx
    acc = list(inner.basis.rows)
    rank = inner.dim
    out = []
    for row in outer.basis.rows:
        cand = Subspace.from_vectors(ctx, outer.ambient_dim, acc + [row])
        if cand.dim > rank:
            acc.append(row)
            rank = cand.dim
            out.append(tuple(row))
        if rank == outer.dim:
            break
    return out


def hyperplanes_containing(x: Subspace, u: Subspace) -> Iterator[Subspace]:
    """All codimension-1 subspaces of x that contain u, deterministically.

    Yields exactly q_int(dim x - dim u, q) distinct hyperplanes; each is the
    kernel inside x of a linear functional c (coordinates over x's basis)
    vanishing on u, spanned in closed form by x_j - (c_j / c_p) x_p for
    j != p, p the first nonzero of c.  Functionals are enumerated as
    canonical projective representatives of the solution space, ascending.
    """
    if not x.contains(u):
        raise NotSubspaceError("u is not contained in x")
    if u.dim > x.dim - 1:
        raise NotSubspaceError("u must have codimension at least 1 in x")
    ctx = x.ctx
    k = x.dim
    u_coords = MatrixGF(ctx, [x.coords_of(r) for r in u.basis.rows], ncols=k)
    w = kernel(u_coords)  # functionals on x vanishing on u
    wrows = w.basis.rows
    xrows = x.basis.rows
    for lam in projective_reps(ctx, w.dim):
        c = [0] * k
        for li, row in zip(lam, wrows):
            if li:
                c = [ctx.add(a, ctx.mul(li, b)) for a, b in zip(c, row)]
        p = next(j for j, cj in enumerate(c) if cj)
        inv_p = ctx.inv(c[p])
        h_rows = []
        for j in range(k):
            if j != p:
                f = ctx.neg(ctx.mul(c[j], inv_p))
                h_rows.append([ctx.add(a, ctx.mul(f, b)) for a, b in zip(xrows[j], xrows[p])])
        yield Subspace.from_vectors(ctx, x.ambient_dim, h_rows)


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
