import pytest

from conftest import count_step_codes, verify_step_certificate
from grasscodes import construct
from grasscodes.codes import (
    LinearCode,
    MonomialMap,
    apply_monomial,
    classify,
    coordinate_subspace,
    has_strength,
    strength,
)
from grasscodes.construct import (
    StepCertificate,
    coordinate_tuples,
    geodesic_path,
    opposite_code,
    scan_stats,
    shrink,
    step_toward,
    vandermonde_mds,
)
from grasscodes.errors import (
    BadInnerSubspaceError,
    DuplicatePointsError,
    NoLambdaError,
    NoShrinkFoundError,
    NotEnoughPointsError,
    NotInCtError,
    PathFailedError,
    StepDepthError,
)
from grasscodes.gf import field_new, field_of_order
from grasscodes.grassmann import enumerate_subspaces, grassmann_distance
from grasscodes.linalg import (
    Subspace,
    hyperplanes_containing,
    intersect,
    q_int,
)

F2 = field_new(2)
F3 = field_new(3)
F5 = field_new(5)
F7 = field_new(7)


def strength_class(ctx, n, k, t):
    idx = enumerate_subspaces(ctx, n, k)
    marks = idx.strength_all()
    return [LinearCode(idx.subspace_at(i)) for i in range(len(idx)) if marks[i] >= t]


# -- vandermonde -----------------------------------------------------------------

def test_vandermonde_example():
    c = vandermonde_mds(F5, 4, 2, points=[0, 1, 2, 3])
    # roots (1,1,1,1) and (0,1,2,3) span the same plane as the canonical rows
    assert c == LinearCode.from_generator(F5, [(1, 1, 1, 1), (0, 1, 2, 3)])
    assert strength(c) == 2
    assert classify(c)["mds"]


def test_vandermonde_default_points_and_full_space():
    c = vandermonde_mds(F5, 4, 4)
    assert c.k == 4 and c.space == Subspace.full(F5, 4)
    assert strength(c) == 4


def test_vandermonde_errors():
    with pytest.raises(NotEnoughPointsError):
        vandermonde_mds(F2, 3, 2)
    with pytest.raises(DuplicatePointsError):
        vandermonde_mds(F5, 3, 2, points=[1, 1, 2])
    with pytest.raises(NotEnoughPointsError):
        vandermonde_mds(F5, 3, 2, points=[1, 2])


@pytest.mark.parametrize("q", [5, 7, 8, 9])
def test_vandermonde_strength_grid(q):
    ctx = field_of_order(q)
    for n in range(2, min(q, 6) + 1):
        for k in range(1, n + 1):
            assert strength(vandermonde_mds(ctx, n, k)) == k


# -- steps -------------------------------------------------------------------------

def test_step_d1_reaches_target():
    """At distance 1 the only valid step is y, returned as the caller's object."""
    codes = strength_class(F3, 3, 2, 1)
    found = 0
    for x in codes:
        for y in codes:
            if x != y and intersect(x.space, y.space).dim == 1:
                cert = step_toward(x, y, 1)
                assert cert.z_code is y
                assert cert.dim_x_meet_z == 1 and cert.dim_z_meet_y == 2
                assert verify_step_certificate(x, y, 1, cert)
                found += 1
        if found > 6:
            break
    assert found


def test_step_vandermonde_disjoint_pair():
    """Frozen outcome: the scan succeeds here even though q=5 sits below
    the color-count bound for (n,t) = (4,2)."""
    x = vandermonde_mds(F5, 4, 2)
    y = opposite_code(x, 2).code
    assert intersect(x.space, y.space).dim == 0
    cert = step_toward(x, y, 2)
    assert (cert.dim_x_meet_z, cert.dim_z_meet_y) == (1, 1)
    assert cert.class_member and strength(cert.z_code) >= 2
    assert verify_step_certificate(x, y, 2, cert)


def test_step_certificate_tamper_detected():
    x = vandermonde_mds(F5, 4, 2)
    y = opposite_code(x, 2).code
    cert = step_toward(x, y, 2)
    bad = StepCertificate(
        cert.z_code, cert.hyperplane_used, cert.coset_rep,
        cert.dim_x_meet_z + 1, cert.dim_z_meet_y, cert.class_member,
    )
    assert not verify_step_certificate(x, y, 2, bad)


def test_step_preconditions():
    x = vandermonde_mds(F5, 4, 2)
    with pytest.raises(StepDepthError):
        step_toward(x, x, 2)
    y = opposite_code(x, 2).code  # distance 2
    with pytest.raises(StepDepthError):
        step_toward(x, y, 1)
    degenerate = LinearCode.from_generator(F5, [(1, 0, 0, 0), (0, 1, 0, 0)])
    with pytest.raises(NotInCtError):
        step_toward(degenerate, y, 1)


def test_step_first_hyperplane_above_bound():
    """q >= number of colors: the first hyperplane must already succeed."""
    codes = strength_class(F7, 4, 2, 2)  # 7 >= C(4,2) = 6
    rng_pairs = 0
    for x in codes[:4]:
        for y in codes[:40]:
            if x == y:
                continue
            d = 2 - intersect(x.space, y.space).dim
            if not 1 <= d <= 2:
                continue
            cert = step_toward(x, y, 2)
            first_h = next(hyperplanes_containing(x.space, intersect(x.space, y.space)))
            assert cert.hyperplane_used == first_h
            assert verify_step_certificate(x, y, 2, cert)
            rng_pairs += 1
            if rng_pairs >= 25:
                return
    assert rng_pairs


def test_count_step_codes_bound_and_oracle():
    idx = enumerate_subspaces(F7, 4, 2)
    marks = idx.strength_all()
    codes = [LinearCode(idx.subspace_at(i)) for i in range(len(idx)) if marks[i] >= 2]
    x = codes[0]
    done = 0
    for y in codes[1:]:
        d = 2 - intersect(x.space, y.space).dim
        if d != 2:
            continue
        count = count_step_codes(x, y, 2)
        assert count >= q_int(2, 7)  # at least [d]_q distinct steps
        oracle = 0
        for i in range(len(idx)):
            if marks[i] < 2:
                continue
            z = idx.subspace_at(i)
            if (
                grassmann_distance(x.space, z) == 1
                and grassmann_distance(z, y.space) == d - 1
            ):
                oracle += 1
        assert count == oracle
        done += 1
        if done >= 2:
            break
    assert done == 2


def test_scan_stats_counted():
    x = vandermonde_mds(F5, 4, 2)
    y = opposite_code(x, 2).code
    before = (scan_stats.meet_checks, scan_stats.meet_violations)
    step_toward(x, y, 2)
    assert scan_stats.meet_checks > before[0]
    assert scan_stats.meet_violations == before[1]


# -- shrink ------------------------------------------------------------------------

def test_shrink_vandermonde():
    x = vandermonde_mds(F5, 4, 3)
    out = shrink(x, Subspace.zero(F5, 4), 1)
    assert out.k == 2
    assert x.space.contains(out.space)
    for crit in ("dual_distance", "columns", "coord_meet"):
        assert has_strength(out, 1, crit)


def test_shrink_preserves_inner():
    x = vandermonde_mds(F7, 5, 4)
    inner = Subspace.from_vectors(F7, 5, [x.generator.rows[0]])
    out = shrink(x, inner, 2)  # dim inner = 1 < k - t = 2
    assert out.k == 3
    assert out.space.contains(inner)
    assert strength(out) >= 2


def test_shrink_bad_inner():
    x = vandermonde_mds(F5, 4, 3)
    big = Subspace.from_vectors(F5, 4, x.generator.rows[:2])
    with pytest.raises(BadInnerSubspaceError):
        shrink(x, big, 1)  # dim 2 >= k - t = 2
    outside = Subspace.from_vectors(F5, 4, [(0, 0, 0, 1)])
    if not x.space.contains(outside):
        with pytest.raises(BadInnerSubspaceError):
            shrink(x, outside, 1)


def meets_with_colors(x, t):
    """Oracle: x's meets with the codimension-t coordinate subspaces."""
    return [
        intersect(x.space, coordinate_subspace(x.ctx, x.n, color))
        for color in coordinate_tuples(x.n, t)
    ]


@pytest.mark.parametrize("q,n,k,t", [(5, 4, 3, 1), (5, 4, 3, 2)])
def test_shrink_column_test_matches_meet_oracle(q, n, k, t):
    """A hyperplane of x has strength t exactly when it contains none of
    x's meets with the colors, and shrink returns the first such one."""
    ctx = field_of_order(q)
    seen = {True: 0, False: 0}
    for x in strength_class(ctx, n, k, t):
        meets = meets_with_colors(x, t)
        assert all(m.dim == k - t for m in meets)
        inners = [Subspace.zero(ctx, n)]
        if k - t > 1:
            inners.append(Subspace.from_vectors(ctx, n, [x.generator.rows[0]]))
        for inner in inners:
            passing = []
            for h in hyperplanes_containing(x.space, inner):
                by_columns = has_strength(LinearCode(h), t, "columns")
                assert by_columns == (not any(h.contains(m) for m in meets))
                seen[by_columns] += 1
                if by_columns:
                    passing.append(h)
            if passing:
                assert shrink(x, inner, t).space == passing[0]
            else:
                with pytest.raises(NoShrinkFoundError):
                    shrink(x, inner, t)
    assert seen[True] and seen[False]


def test_shrink_matches_existence_oracle_below_bound():
    """shrink succeeds exactly when some strength-t hyperplane exists
    (deterministic witness set: q=2, n=5, k=2, t=1, where 25 of the 40
    non-degenerate planes have no such hyperplane)."""
    codes = strength_class(F2, 5, 2, 1)
    assert len(codes) == 40
    zero = Subspace.zero(F2, 5)
    ok = fail = 0
    for x in codes:
        exists = any(
            strength(LinearCode(h)) >= 1
            for h in hyperplanes_containing(x.space, zero)
        )
        try:
            out = shrink(x, zero, 1)
            assert exists and strength(out) >= 1
            ok += 1
        except NoShrinkFoundError:
            assert not exists
            fail += 1
    assert (ok, fail) == (15, 25)


# -- geodesic paths -------------------------------------------------------------------

def path_is_valid(path, t):
    for a, b in zip(path, path[1:]):
        if intersect(a.space, b.space).dim != a.k - 1:
            return False
    return all(strength(z) >= t for z in path)


def test_geodesic_trivial_and_adjacent():
    x = vandermonde_mds(F5, 4, 2)
    assert geodesic_path(x, x, 2) == [x]
    y = step_toward(x, opposite_code(x, 2).code, 2).z_code
    mid = intersect(x.space, y.space).dim
    if mid == 1:
        assert geodesic_path(x, y, 2) == [x, y]


def test_geodesic_disjoint_pair_gf5():
    x = vandermonde_mds(F5, 4, 2)
    y = opposite_code(x, 1).code
    assert intersect(x.space, y.space).dim == 0
    path = geodesic_path(x, y, 1)
    assert len(path) == 3 and path[0] is x and path[-1] is y
    assert path_is_valid(path, 1)


def test_geodesic_deep_case():
    """d = 3 > t = 1 forces the shrink-and-merge branch twice."""
    x = vandermonde_mds(F7, 6, 3)
    y = opposite_code(x, 1).code
    assert intersect(x.space, y.space).dim == 0
    path = geodesic_path(x, y, 1)
    assert len(path) == 4
    assert path_is_valid(path, 1)
    assert path[0] == x and path[-1] == y


def test_geodesic_matches_distance_when_it_succeeds():
    codes = strength_class(F3, 4, 2, 1)
    done = 0
    for x in codes[::7]:
        for y in codes[::5]:
            d = 2 - intersect(x.space, y.space).dim
            if d == 0:
                continue
            try:
                path = geodesic_path(x, y, 1)
            except PathFailedError as exc:
                assert isinstance(exc.partial_path, list)
                continue
            assert len(path) - 1 == d
            assert path_is_valid(path, 1)
            done += 1
    assert done > 10


def test_geodesic_computes_each_meet_once(monkeypatch):
    """One merge and one step: x ∩ y once, then two meets per move (its
    meet with the current code and with y); the path is unchanged."""
    x = LinearCode.from_generator(F7, [(1, 0, 1, 2, 3), (0, 1, 4, 5, 6)])
    y = LinearCode.from_generator(F7, [(1, 2, 0, 3, 1), (0, 0, 1, 1, 4)])
    calls = []

    def counting_intersect(a, b):
        calls.append((a, b))
        return intersect(a, b)

    monkeypatch.setattr(construct, "intersect", counting_intersect)
    path = geodesic_path(x, y, 1)
    assert [c.generator.rows for c in path] == [
        ((1, 0, 1, 2, 3), (0, 1, 4, 5, 6)),
        ((1, 0, 5, 6, 3), (0, 1, 1, 2, 6)),
        ((1, 2, 0, 3, 1), (0, 0, 1, 1, 4)),
    ]
    assert len(calls) == 6


def test_geodesic_below_bound_failure_witness():
    """Frozen witness: over GF(2) with n=5, k=2, t=1 the deterministic
    shrink inside the deep branch fails for most disjoint pairs."""
    codes = strength_class(F2, 5, 2, 1)
    x, y = codes[2], codes[3]
    assert intersect(x.space, y.space).dim == 0
    with pytest.raises(PathFailedError) as exc_info:
        geodesic_path(x, y, 1)
    assert exc_info.value.partial_path == [x]


# -- opposite codes ---------------------------------------------------------------------

def test_opposite_disjoint_case():
    c = vandermonde_mds(F5, 4, 2)
    res = opposite_code(c, 2)
    assert intersect(c.space, res.code.space).dim == 0
    assert strength(res.code) == strength(c)
    assert apply_monomial(res.witness, c) == res.code
    assert 1 <= res.lam < 5


def test_opposite_overlapping_case():
    c = vandermonde_mds(F7, 3, 2)  # 2k > n
    res = opposite_code(c, 1)
    meet = intersect(c.space, res.code.space)
    assert meet.dim == 1 == max(2 * c.k - c.n, 0)
    s = c.space.dim + res.code.space.dim - meet.dim
    assert s == 3  # c + d spans everything


def test_opposite_construction_chain():
    """The witness is σ⁻¹∘μ_λ∘σ, rebuilt from c and λ: σ moves the RREF
    pivots to the front, μ_λ swaps the first two k-blocks and scales the
    source block [k, 2k) by λ (2k <= n here), and it maps c onto D."""
    c = vandermonde_mds(F7, 5, 2)
    res = opposite_code(c, 2)
    n, k = c.n, c.k
    pivots = [next(j for j, v in enumerate(r) if v) for r in c.generator.rows]
    order = pivots + [j for j in range(n) if j not in pivots]
    sigma = MonomialMap(F7, tuple(order.index(j) for j in range(n)), (1,) * n)
    mu = MonomialMap(
        F7,
        tuple((j + k) % (2 * k) if j < 2 * k else j for j in range(n)),
        tuple(res.lam if k <= j < 2 * k else 1 for j in range(n)),
    )
    assert res.witness == sigma.inverse().compose(mu).compose(sigma)
    assert apply_monomial(res.witness, c) == res.code


def test_construct_never_scans_strength_in_class(monkeypatch):
    """On in-class inputs membership is the t-column test alone: the
    full strength scan is only reached to word a failure."""
    def no_scan(c):
        raise AssertionError("strength scan on an in-class input")

    monkeypatch.setattr(construct, "strength", no_scan)
    x = vandermonde_mds(F7, 6, 3)
    y = opposite_code(x, 1).code
    assert len(geodesic_path(x, y, 1)) == 4  # two merges, then one step
    assert shrink(x, Subspace.zero(F7, 6), 1).k == 2
    f11 = field_new(11)
    z = vandermonde_mds(f11, 5, 2)
    w = opposite_code(z, 2).code
    assert step_toward(z, w, 2).dim_z_meet_y == 1
    assert len(geodesic_path(z, w, 2)) == 3


def test_opposite_full_space():
    full = LinearCode(Subspace.full(F5, 3))
    res = opposite_code(full, 1)
    assert res.code == full
    assert intersect(full.space, res.code.space).dim == 3 == max(2 * 3 - 3, 0)


def test_opposite_errors():
    degenerate = LinearCode.from_generator(F5, [(1, 0, 0), (0, 1, 0)])
    with pytest.raises(NotInCtError):
        opposite_code(degenerate, 1)
    tiny = LinearCode.from_generator(F2, [(1, 1)])
    with pytest.raises(NoLambdaError):
        opposite_code(tiny, 1)


def test_opposite_realizes_diameter_distance():
    """Opposite pairs sit at distance min(k, n-k), the graph diameter."""
    for q, n, k in [(5, 4, 2), (7, 5, 2), (7, 5, 3), (8, 4, 3), (9, 5, 4)]:
        ctx = field_of_order(q)
        c = vandermonde_mds(ctx, n, k)
        res = opposite_code(c, 1)
        assert grassmann_distance(c.space, res.code.space) == min(k, n - k)
