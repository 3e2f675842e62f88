"""Constructive algorithms on strength-t codes.

Everything the verification sweeps check *for existence* is built here
*explicitly*: MDS generators from Vandermonde evaluations, single
adjacency steps between codes that stay inside the strength-t class,
dimension shrinking that protects a prescribed subspace, full geodesic
paths, and opposite (maximum-distance) equivalent codes.

All scans are deterministic: hyperplanes and coset representatives are
enumerated in a fixed canonical order and the first success is returned,
so certificates are reproducible.  Below the field-size bounds that
guarantee success the operations stay usable but fail loudly
(NoStepFound / NoShrinkFound / NoLambda / PathFailed) instead of
silently degrading.

The colors of the field-size argument are the codimension-t coordinate
subspaces, one per t-set of coordinates.  A step candidate <H, z> is in
the class iff it meets every one of them in dimension k - t; the theory
says the meet never exceeds k - t + 1, so a candidate failing the test
has at least one color, and with q at least the number of colors some
coset of the scan has none.  `step_toward` measures every color of
every candidate it tries and refuses to pass any meet above the bound;
`scan_stats` counts both, so a run can assert that checks happened and
none failed.  `shrink` tests each hyperplane by its t-column ranks, and
a geodesic computes each meet with the target once, handing it from
move to move.

Membership in the class is decided everywhere by the same t-column test
(`has_strength(c, t, "columns")`): inputs, merged codes and opposite
codes alike.  The full `strength` scan only words a failure message.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .codes import (
    LinearCode,
    MonomialMap,
    apply_monomial,
    column_rank,
    has_strength,
    strength,
)
from .errors import (
    BadInnerSubspaceError,
    BadTError,
    DuplicatePointsError,
    InternalInvariantError,
    NoLambdaError,
    NoShrinkFoundError,
    NoStepFoundError,
    NotEnoughPointsError,
    NotInCtError,
    PathFailedError,
    StepDepthError,
)
from .gf import FieldCtx
from .linalg import (
    Subspace,
    Vector,
    complement_basis,
    hyperplanes_containing,
    intersect,
    projective_reps,
    rref,
)


def coordinate_tuples(n: int, t: int):
    """All colors (i_1 < ... < i_t), 1-based, in lexicographic order."""
    return itertools.combinations(range(1, n + 1), t)


# -- scan diagnostics ------------------------------------------------------------

@dataclass
class ScanStats:
    """Counters over coordinate-meet measurements made inside scans."""

    meet_checks: int = 0
    meet_violations: int = 0


scan_stats = ScanStats()


def _span_in_class(space: Subspace, t: int) -> bool:
    """Whether a candidate span <H, z> off a strength-t code meets every
    codimension-t coordinate subspace in dimension k - t.

    Every color is measured (no early exit), so each candidate adds
    exactly C(n, t) to `scan_stats.meet_checks`.  A meet above k - t + 1
    is impossible for such a span; hitting one is counted and raised."""
    ctx = space.ctx
    n, k = space.ambient_dim, space.dim
    rows = space.basis.rows
    in_class = True
    for color in coordinate_tuples(n, t):
        d = k - column_rank(ctx, rows, [i - 1 for i in color])
        scan_stats.meet_checks += 1
        if d > k - t + 1:
            scan_stats.meet_violations += 1
            raise InternalInvariantError(
                f"coordinate meet dimension {d} exceeds bound {k - t + 1} at {color}"
            )
        in_class = in_class and d == k - t
    return in_class


def _require_strength(c: LinearCode, t: int, who: str) -> None:
    if t < 1:
        raise BadTError(f"strength t must be at least 1, got t={t}")
    if t > c.k or not has_strength(c, t, "columns"):
        raise NotInCtError(f"{who} has strength {strength(c)} < {t}")


# -- MDS generator ------------------------------------------------------------------

def vandermonde_mds(
    ctx: FieldCtx, n: int, k: int, points: list[int] | None = None
) -> LinearCode:
    """Strength-k code from rows (a_j^i), i = 0..k-1, over n distinct points.

    Every k x k minor is a Vandermonde determinant, a product of
    differences of distinct points, hence nonzero: all k columns subsets
    are independent.  Default points: the first n field elements by
    encoding (requires n <= q).
    """
    if not 1 <= k <= n:
        raise NotEnoughPointsError(f"need 1 <= k <= n, got k={k}, n={n}")
    if points is None:
        if n > ctx.q:
            raise NotEnoughPointsError(f"n={n} > q={ctx.q} and no points supplied")
        points = list(range(n))
    else:
        points = [int(a) for a in points]
        if len(points) != n:
            raise NotEnoughPointsError(f"need {n} points, got {len(points)}")
        if len(set(points)) != n:
            raise DuplicatePointsError("evaluation points must be pairwise distinct")
        if any(not 0 <= a < ctx.q for a in points):
            raise ValueError("points outside field encoding range")
    rows = [[ctx.pow(a, i) for a in points] for i in range(k)]
    code = LinearCode.from_generator(ctx, rows, n=n)
    if code.k != k:  # pragma: no cover - Vandermonde rows are independent
        raise InternalInvariantError("Vandermonde generator lost rank")
    return code


# -- one geodesic step -----------------------------------------------------------------

@dataclass
class StepCertificate:
    """Record of one constructed step; every field is re-verifiable."""

    z_code: LinearCode
    hyperplane_used: Subspace
    coset_rep: Vector
    dim_x_meet_z: int
    dim_z_meet_y: int
    class_member: bool


def _coset_rep_vectors(ctx: FieldCtx, comp: list[Vector]):
    """Canonical nonzero coset representatives of y modulo (x ∩ y):
    projective combinations of comp, the complement basis of x ∩ y in y,
    generated lazily (there are [d]_q of them)."""
    n = len(comp[0])
    for lam in projective_reps(ctx, len(comp)):
        v = [0] * n
        for li, b in zip(lam, comp):
            if li:
                v = [ctx.add(a, ctx.mul(li, c)) for a, c in zip(v, b)]
        yield tuple(v)


def _step_candidates(x: LinearCode, y: LinearCode, xy: Subspace):
    """Deterministic (hyperplane, rep, span) scan order of step_toward;
    xy is x ∩ y."""
    ctx = x.ctx
    comp = complement_basis(xy, y.space)
    for h in hyperplanes_containing(x.space, xy):
        for z in _coset_rep_vectors(ctx, comp):
            span = Subspace._row_space(ctx, x.n, h.basis.rows + (z,))
            yield h, z, span


def _forced_meet(cur: LinearCode, z: Subspace, y: LinearCode, d: int) -> Subspace:
    """z ∩ y for a move z off cur with cur at distance d from y, after
    checking the dimensions the theory forces: dim(cur ∩ z) = k - 1 and
    dim(z ∩ y) = k - d + 1."""
    k = cur.k
    dim_xz = intersect(cur.space, z).dim
    zy = intersect(z, y.space)
    if dim_xz != k - 1 or zy.dim != k - d + 1:
        raise InternalInvariantError(
            f"move dims ({dim_xz}, {zy.dim}) differ from forced "
            f"({k - 1}, {k - d + 1})"
        )
    return zy


def step_toward(x: LinearCode, y: LinearCode, t: int) -> StepCertificate:
    """First code Z adjacent to x, one closer to y, inside the class.

    Scans hyperplanes of x through x∩y in canonical order and, inside
    each, coset representatives of y; returns the first spanned code of
    strength t.   With q at least the number of colors the very first
    hyperplane must succeed; below that bound the scan may fall through
    and ultimately raise NoStepFound.  At distance 1 the step lands on y,
    and y itself is returned, so a path ends on the caller's code.
    """
    _require_strength(x, t, "x")
    _require_strength(y, t, "y")
    xy = intersect(x.space, y.space)
    d = x.k - xy.dim
    if d == 0:
        raise StepDepthError("codes are equal; no step to make")
    if d > t:
        raise StepDepthError(f"pair distance {d} exceeds strength {t}")
    for h, z, span in _step_candidates(x, y, xy):
        if _span_in_class(span, t):
            zy = _forced_meet(x, span, y, d)
            z_code = y if d == 1 else LinearCode(span)
            return StepCertificate(z_code, h, z, x.k - 1, zy.dim, True)
    raise NoStepFoundError(
        f"no strength-{t} step between the codes (q={x.ctx.q} below the bound?)"
    )


# -- dimension shrink --------------------------------------------------------------------

def shrink(x: LinearCode, inner: Subspace, t: int) -> LinearCode:
    """First strength-t hyperplane of x containing `inner`.

    A hyperplane h is tested by the ranks of its t-column submatrices.
    That is the test "h contains none of the meets of x with the
    codimension-t coordinate subspaces": each meet has dimension k - t
    (x has strength t), and h meets it in dimension k - t - 1 unless h
    contains it.  The counting bound guarantees such an h whenever q is
    at least the number of colors.
    """
    _require_strength(x, t, "x")
    if not x.space.contains(inner) or inner.dim >= x.k - t:
        raise BadInnerSubspaceError(
            f"need inner ⊂ x with dim {inner.dim} < k - t = {x.k - t}"
        )
    for h in hyperplanes_containing(x.space, inner):
        shrunk = LinearCode(h)
        if has_strength(shrunk, t, "columns"):
            return shrunk
    raise NoShrinkFoundError(
        f"no strength-{t} hyperplane of x over U (q={x.ctx.q} below the bound?)"
    )


# -- geodesic paths ----------------------------------------------------------------------

def geodesic_path(x: LinearCode, y: LinearCode, t: int) -> list[LinearCode]:
    """Path x = Z_0, ..., Z_m = y inside the class with m = k - dim(x∩y).

    While the remaining distance d exceeds t, a shrink-and-merge move is
    taken: shrink the current code to a strength-t hyperplane through
    its meet with y, extend that meet by the first coset representative
    of y (the first row of y's complement basis over it), and span the
    two; the merged code's membership is verified directly, never
    assumed.  The remaining d <= t moves are single steps.
    """
    _require_strength(x, t, "x")
    _require_strength(y, t, "y")
    path = [x]
    cur = x
    xy = intersect(x.space, y.space)
    d = x.k - xy.dim
    while d > t:
        try:
            xprime = shrink(cur, xy, t)
        except NoShrinkFoundError as exc:
            raise PathFailedError(str(exc), partial_path=path) from exc
        ctx = cur.ctx
        first_rep = complement_basis(xy, y.space)[0]
        merged = Subspace._row_space(
            ctx, cur.n, xprime.space.basis.rows + xy.basis.rows + (first_rep,)
        )
        if merged.dim != cur.k:
            raise InternalInvariantError(
                f"merged span has dim {merged.dim}, expected {cur.k}"
            )
        merged_code = LinearCode(merged)
        if not has_strength(merged_code, t, "columns"):
            raise PathFailedError(
                f"merged code fell outside the class (strength "
                f"{strength(merged_code)} < {t}); q={ctx.q} below the bound?",
                partial_path=path,
            )
        xy = _forced_meet(cur, merged, y, d)
        cur = merged_code
        d -= 1
        path.append(cur)
    for _ in range(d):
        try:
            cur = step_toward(cur, y, t).z_code
        except NoStepFoundError as exc:
            raise PathFailedError(str(exc), partial_path=path) from exc
        path.append(cur)
    return path


# -- opposite codes ----------------------------------------------------------------------

@dataclass
class OppositeResult:
    """Opposite equivalent code, the map that builds it and its scalar."""

    code: LinearCode      # D = witness(input), opposite to the input
    witness: MonomialMap  # sigma^-1 mu_lambda sigma
    lam: int              # the accepted scalar


def _info_set_permutation(ctx: FieldCtx, n: int, pivots: list[int]) -> MonomialMap:
    rest = [j for j in range(n) if j not in set(pivots)]
    perm = [0] * n
    for dest, src in enumerate(pivots + rest):
        perm[src] = dest
    return MonomialMap(ctx, tuple(perm), (1,) * n)


def opposite_code(c: LinearCode, t: int) -> OppositeResult:
    """An equivalent code D with dim(c ∩ D) = max(2k - n, 0).

    The generator is put in systematic form over the lexicographically
    first information set (its RREF pivots), the identity and non-pivot
    blocks are swapped by a monomial map with the non-pivot block scaled
    by λ, and λ is chosen by an ascending scan with a direct rank test of
    the stacked generators (no eigenvalue machinery).  At most
    max(k, n-k) scalars can fail, so the scan succeeds whenever
    q > max(k, n-k) + 1.  D is built once, as the image of c under the
    witness σ⁻¹ ∘ μ_λ ∘ σ.
    """
    _require_strength(c, t, "c")
    ctx, n, k = c.ctx, c.n, c.k
    gen = c.generator
    pivots = [next(j for j, v in enumerate(r) if v) for r in gen.rows]
    sigma = _info_set_permutation(ctx, n, pivots)
    gp = sigma.apply_to_matrix(gen)  # [I_k | M]
    target_rank = 2 * k if 2 * k <= n else n
    if 2 * k <= n:
        # source columns [0,k) -> [k,2k); [k,2k) -> [0,k) scaled; rest fixed
        perm = tuple(
            (j + k) if j < k else (j - k) if j < 2 * k else j for j in range(n)
        )
        scaled_src = range(k, 2 * k)
    else:
        m = n - k
        # source [0, m) -> [k, n); [m, k) fixed; [k, n) -> [0, m) scaled
        perm = tuple(
            (j + k) if j < m else j if j < k else (j - k) for j in range(n)
        )
        scaled_src = range(k, n)
    for lam in ctx.all_nonzero():
        mu = MonomialMap(
            ctx, perm, tuple(lam if j in scaled_src else 1 for j in range(n))
        )
        _, rank = rref(gp.stack(mu.apply_to_matrix(gp)))
        if rank == target_rank:
            witness = sigma.inverse().compose(mu).compose(sigma)
            d_code = apply_monomial(witness, c)
            expected_meet = max(2 * k - n, 0)
            got = intersect(c.space, d_code.space).dim
            if got != expected_meet:  # pragma: no cover
                raise InternalInvariantError(
                    f"opposite meet dim {got} != {expected_meet}"
                )
            if not has_strength(d_code, t, "columns"):  # pragma: no cover - maps keep strength
                raise InternalInvariantError("opposite code left the class")
            return OppositeResult(d_code, witness, lam)
    raise NoLambdaError(
        f"no scalar yields an opposite pair (q={ctx.q} at most max(k, n-k)+1?)"
    )
