"""Acceptance suite: one test per verification criterion, each printing a
PASS line with its measured scope.  Run with `pytest tests/test_acceptance.py -v -s`.

The known single-vertex parameter gap (q=2, n=2, k=1, t=1) is pinned
exactly: its induced subgraph is one vertex, so its diameter 0 cannot
match the full graph's 1; every other grid instance must satisfy every
clause, and that instance must satisfy all but the diameter clause.
"""

import itertools
import random
from math import comb, inf

from conftest import (
    bfs_distances,
    count_step_codes,
    random_monomial,
    verify_step_certificate,
)
from grasscodes.codes import (
    CRITERIA,
    INFINITE,
    LinearCode,
    apply_monomial,
    dual_min_distance,
    has_strength,
    strength,
    weight,
)
from grasscodes.construct import (
    geodesic_path,
    opposite_code,
    scan_stats,
    step_toward,
    vandermonde_mds,
)
from grasscodes.gf import field_of_order
from grasscodes.grassmann import (
    ALL_PAIRS_CAP,
    ENUM_CAP,
    build_delta,
    enumerate_subspaces,
    grassmann_distance,
)
from grasscodes.linalg import (
    MatrixGF,
    hyperplanes_containing,
    intersect,
    kernel,
    q_int,
    subspace_count,
)
from grasscodes.sweep import (
    SweepConfig,
    is_violation,
    run_sweep,
    validate_report,
    verify_group,
)

QS = (2, 3, 4, 5, 7, 8, 9)
GAMMA_VERTEX_CAP = 1 << 13
KNOWN_GAP = (2, 2, 1, 1)  # single-vertex class; diameter clause cannot hold

_INDEX_CACHE: dict = {}


def cached_index(q, n, k):
    key = (q, n, k)
    if key not in _INDEX_CACHE:
        if len(_INDEX_CACHE) > 2:
            _INDEX_CACHE.clear()
        _INDEX_CACHE[key] = enumerate_subspaces(field_of_order(q), n, k)
    return _INDEX_CACHE[key]


def main_grid():
    """Criterion 1 instance list."""
    out = []
    for q in QS:
        for n in range(2, 6):
            for k in range(1, n):
                if subspace_count(n, k, q) > GAMMA_VERTEX_CAP:
                    continue
                for t in range(1, k + 1):
                    if q >= comb(n, t):
                        out.append((q, n, k, t))
    return out


def random_code(ctx, n, k, rng):
    while True:
        rows = [[rng.randrange(ctx.q) for _ in range(n)] for _ in range(k)]
        c = LinearCode.from_generator(ctx, rows, n=n)
        if c.k == k:
            return c


def random_code_of_strength(ctx, n, k, t, rng, tries=60):
    for _ in range(tries):
        c = random_code(ctx, n, k, rng)
        if strength(c) >= t:
            return c
    # sparse class: take the monomial orbit of a Vandermonde seed
    seed = vandermonde_mds(ctx, n, k)
    return apply_monomial(random_monomial(ctx, n, rng), seed)


def sample_pairs_at_distance(delta, d, rng, want):
    """Up to `want` vertex-position pairs of the induced graph at metric
    distance d, deterministically seeded."""
    v = delta.num_vertices
    out = []
    if v < 2:
        return out
    tries = 0
    while len(out) < want and tries < 400 * want:
        tries += 1
        i = rng.randrange(v)
        j = rng.randrange(v)
        if i == j:
            continue
        x = delta.subspace_at(i)
        y = delta.subspace_at(j)
        if grassmann_distance(x, y) == d:
            out.append((i, j))
    return out


def test_criterion_1_main_theorem_sweep():
    grid = main_grid()
    assert KNOWN_GAP in grid
    reports = [
        rep
        for (q, n, k), group in itertools.groupby(grid, key=lambda inst: inst[:3])
        for rep in verify_group(q, n, k, [inst[3] for inst in group], ENUM_CAP, ALL_PAIRS_CAP)
    ]
    failures = []
    gap_seen = False
    for (q, n, k, t), rep in zip(grid, reports, strict=True):
        assert (rep["q"], rep["n"], rep["k"], rep["t"]) == (q, n, k, t)
        validate_report(rep)
        assert rep["caps_hit"] == [], (q, n, k, t)
        assert rep["class_size"] > 0, (q, n, k, t)
        ok_connect = rep["connected"] is True
        ok_iso = rep["isometric"] is True
        ok_diam = (
            rep["diameter_delta"] == rep["diameter_gamma"] == min(k, n - k)
        )
        if (q, n, k, t) == KNOWN_GAP:
            gap_seen = True
            assert ok_connect and ok_iso, "gap instance must still connect/embed"
            assert rep["diameter_delta"] == 0 and rep["diameter_gamma"] == 1, \
                "the pinned gap instance changed behavior"
            assert is_violation(rep)
            continue
        if not (ok_connect and ok_iso and ok_diam):
            failures.append(((q, n, k, t), rep))
    assert gap_seen
    assert not failures, failures
    print(
        f"\nACCEPTANCE criterion 1: PASS - {len(grid) - 1} instances connected, "
        f"isometric, diameters equal; known single-vertex gap {KNOWN_GAP} pinned"
    )


def test_criterion_2_membership_criteria_agree():
    # exhaustive over every subspace with q in {2,3}, n <= 5
    checked = 0
    for q in (2, 3):
        ctx = field_of_order(q)
        for n in range(2, 6):
            for k in range(0, n + 1):
                index = enumerate_subspaces(ctx, n, k)
                for i in range(len(index)):
                    c = LinearCode(index.subspace_at(i))
                    for t in range(1, n + 1):
                        answers = {has_strength(c, t, crit) for crit in CRITERIA}
                        assert len(answers) == 1, (q, n, k, t, c.generator.rows)
                        checked += 1
    exhaustive = checked

    # 10^4 random codes with q <= 9, n <= 8 (duals kept enumerable)
    rng = random.Random(0x5EED2)
    randoms = 0
    budget = {2: 320, 3: 320, 4: 320, 5: 320, 6: 120, 7: 60, 8: 30}
    for q in QS:
        ctx = field_of_order(q)
        for n in range(2, 9):
            per = budget[n]
            ks = [
                k
                for k in range(1, n + 1)
                if ctx.q ** (n - k) <= 1 << 20 and ctx.q**k <= 1 << 22
            ]
            if not ks:
                continue
            for _ in range(per):
                k = rng.choice(ks)
                c = random_code(ctx, n, k, rng)
                for t in range(1, n + 1):
                    answers = {has_strength(c, t, crit) for crit in CRITERIA}
                    assert len(answers) == 1, (q, n, k, t, c.generator.rows)
                randoms += 1
    assert randoms >= 10_000
    print(
        f"\nACCEPTANCE criterion 2: PASS - three criteria agree on "
        f"{exhaustive} exhaustive memberships and {randoms} random codes"
    )


def test_criterion_3_vandermonde_mds():
    literal_cap = 1 << 20
    pairs = 0
    literal = 0
    for q in (5, 7, 8, 9, 11, 13):
        ctx = field_of_order(q)
        for n in range(2, q + 1):
            for k in range(1, n + 1):
                c = vandermonde_mds(ctx, n, k)
                assert strength(c) == k, (q, n, k)
                if k < n:
                    # explicit dual word of weight exactly k+1 from the
                    # dependency on the first k+1 generator columns
                    cols = list(range(k + 1))
                    sub = MatrixGF(
                        ctx, [[r[j] for j in cols] for r in c.generator.rows],
                        ncols=k + 1,
                    )
                    dep = kernel(sub).basis.rows[0]
                    word = [0] * n
                    for j, coef in zip(cols, dep):
                        word[j] = coef
                    assert all(_dot(ctx, word, row) == 0 for row in c.generator.rows)
                    assert weight(word) == k + 1
                if ctx.q ** (n - k) <= literal_cap:
                    dmd = dual_min_distance(c)
                    expected = INFINITE if k == n else k + 1
                    assert dmd == expected, (q, n, k, dmd)
                    literal += 1
                pairs += 1
    print(
        f"\nACCEPTANCE criterion 3: PASS - {pairs} (q,n,k) generators have "
        f"strength k; dual distance k+1 enumerated literally on {literal} "
        f"of them and certified by explicit dual words on the rest"
    )


def _dot(ctx, u, v):
    acc = 0
    for a, b in zip(u, v):
        acc = ctx.add(acc, ctx.mul(a, b))
    return acc


def test_criterion_4_step_and_count_bounds():
    rng = random.Random(0x5EED4)
    verified_steps = 0
    verified_counts = 0
    for q, n, k, t in main_grid():
        if (q, n, k, t) == KNOWN_GAP:
            continue
        index = cached_index(q, n, k)
        delta = build_delta(index, t)
        for d in range(1, t + 1):
            for i, j in sample_pairs_at_distance(delta, d, rng, want=4):
                x, y = delta.subspace_at(i), delta.subspace_at(j)
                cx, cy = LinearCode(x), LinearCode(y)
                cert = step_toward(cx, cy, t)
                first_h = next(hyperplanes_containing(x, intersect(x, y)))
                assert cert.hyperplane_used == first_h, (q, n, k, t, d)
                assert verify_step_certificate(cx, cy, t, cert)
                assert intersect(x, cert.z_code.space).dim == k - 1
                assert cert.dim_z_meet_y == k - d + 1
                verified_steps += 1
                count = count_step_codes(cx, cy, t)
                assert count >= q_int(d, q), (q, n, k, t, d, count)
                verified_counts += 1
    assert verified_steps > 100
    print(
        f"\nACCEPTANCE criterion 4: PASS - {verified_steps} first-hyperplane "
        f"steps re-verified, {verified_counts} step-code counts >= [d]_q"
    )


def test_criterion_5_geodesics_match_bfs():
    rng = random.Random(0x5EED5)
    verified = 0
    for q, n, k, t in main_grid():
        if (q, n, k, t) == KNOWN_GAP:
            continue
        index = cached_index(q, n, k)
        delta = build_delta(index, t)
        diam = min(k, n - k)
        pairs = []
        for d in range(1, diam + 1):
            pairs.extend(sample_pairs_at_distance(delta, d, rng, want=4))
        by_source: dict = {}
        for i, j in pairs:
            x, y = LinearCode(delta.subspace_at(i)), LinearCode(delta.subspace_at(j))
            path = geodesic_path(x, y, t)
            if i not in by_source:
                by_source[i] = bfs_distances(delta, i)
            bfs_d = by_source[i][j]
            assert bfs_d != inf
            assert len(path) - 1 == int(bfs_d), (q, n, k, t, i, j)
            for z in path:
                assert has_strength(z, t, "columns"), (q, n, k, t)
            for a, b in zip(path, path[1:]):
                assert intersect(a.space, b.space).dim == k - 1
            verified += 1
    assert verified > 100
    print(
        f"\nACCEPTANCE criterion 5: PASS - {verified} constructed geodesics "
        f"match BFS distances with every vertex inside the class"
    )


def test_criterion_6_opposites_realize_diameter():
    rng = random.Random(0x5EED6)
    quadruples = 0
    samples_total = 0
    for q in QS:
        ctx = field_of_order(q)
        for n in range(2, 6):
            for k in range(1, n):
                if q <= max(k, n - k) + 1:
                    continue
                for t in range(1, k + 1):
                    quadruples += 1
                    for _ in range(200):
                        c = random_code_of_strength(ctx, n, k, t, rng)
                        res = opposite_code(c, t)
                        meet = intersect(c.space, res.code.space).dim
                        assert meet == max(2 * k - n, 0)
                        assert strength(res.code) >= t
                        assert apply_monomial(res.witness, c) == res.code
                        assert grassmann_distance(c.space, res.code.space) == min(
                            k, n - k
                        )
                        samples_total += 1
    assert samples_total == 200 * quadruples
    print(
        f"\nACCEPTANCE criterion 6: PASS - {samples_total} opposite codes over "
        f"{quadruples} (q,n,k,t) quadruples realize the full-graph diameter"
    )


def test_criterion_7_no_meet_bound_violations():
    if scan_stats.meet_checks == 0:
        # standalone run: drive at least one scan
        ctx = field_of_order(5)
        x = vandermonde_mds(ctx, 4, 2)
        y = opposite_code(x, 2).code
        step_toward(x, y, 2)
    assert scan_stats.meet_checks > 0
    assert scan_stats.meet_violations == 0
    print(
        f"\nACCEPTANCE criterion 7: PASS - {scan_stats.meet_checks} coordinate-"
        f"meet checks across all scans, zero bound violations"
    )


def test_criterion_8_monomial_invariance():
    rng = random.Random(0x5EED8)
    trials_per_field = 1000
    total = 0
    for q in QS:
        ctx = field_of_order(q)
        for _ in range(trials_per_field):
            n = rng.randrange(2, 6)
            k = rng.randrange(1, n + 1)
            c = random_code(ctx, n, k, rng)
            m = random_monomial(ctx, n, rng)
            assert strength(apply_monomial(m, c)) == strength(c)
            total += 1
    assert total == len(QS) * trials_per_field
    print(
        f"\nACCEPTANCE criterion 8: PASS - strength preserved across {total} "
        f"random (map, code) trials"
    )


def test_criterion_9_below_bound_exploration():
    """Informational: below-bound instances must be survivable; finding no
    disconnected/non-isometric instance is an acceptable outcome."""
    config = SweepConfig(
        q_list=[2, 3], n_list=[4, 5, 6], max_vertices=1 << 13, max_pairs=1 << 22
    )
    below = []
    for rep in run_sweep(config):
        validate_report(rep)
        if not rep["bound_satisfied"]:
            below.append(rep)
    assert below, "grid contains no below-bound instance?"
    broken = [
        r
        for r in below
        if r["connected"] is False or r["isometric"] is False
    ]
    capped = [r for r in below if r["caps_hit"]]
    empty = [r for r in below if r["class_size"] == 0]
    if broken:
        detail = ", ".join(
            f"(q={r['q']},n={r['n']},k={r['k']},t={r['t']})" for r in broken[:5]
        )
        outcome = f"witnesses found: {detail}"
    else:
        outcome = (
            f"no disconnection or non-isometry within caps "
            f"({len(below)} instances, {len(empty)} empty classes, "
            f"{len(capped)} capped)"
        )
    print(f"\nACCEPTANCE criterion 9: PASS - {outcome}")
