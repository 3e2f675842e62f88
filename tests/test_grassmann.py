import tracemalloc
from collections import deque
from math import inf

import numpy as np
import pytest

from conftest import (
    VertexAbsentError,
    adjacency_pairwise,
    bfs_distances,
    buckets_stable,
    dual_word_strengths,
    index_of,
    isometry_all_pairs,
    iter_rref_bases,
    metric_ranks_pairwise,
    random_monomial,
    sorted_bases,
    span_blocks,
    span_keys_by_blocks,
    strengths_by_column_rank,
    subgraph,
    summary_all_pairs,
)
from grasscodes import bulk, grassmann
from grasscodes.codes import LinearCode, strength
from grasscodes.errors import (
    AllPairsTooLargeError,
    BadTError,
    DimensionMismatchError,
    EnumerationTooLargeError,
    FieldTooLargeError,
    InternalInvariantError,
)
from grasscodes.gf import field_new, field_of_order, is_prime
from grasscodes.grassmann import (
    ALL_PAIRS_CAP,
    GrassmannGraph,
    GraphSummary,
    all_pairs_distances,
    build_delta,
    diameter_and_connectivity,
    enumerate_subspaces,
    gamma_diameter,
    grassmann_distance,
    isometry_check,
    metric_distance_matrix,
)
from grasscodes.linalg import Subspace, class_count, intersect, q_int, subspace_count

F2 = field_new(2)
F3 = field_new(3)
F5 = field_new(5)


def oracle_adjacency(graph):
    """Pure-python adjacency via intersection dimensions."""
    v = graph.num_vertices
    subs = [graph.subspace_at(i) for i in range(v)]
    adj = [[False] * v for _ in range(v)]
    for i in range(v):
        for j in range(i + 1, v):
            if intersect(subs[i], subs[j]).dim == subs[i].dim - 1:
                adj[i][j] = adj[j][i] = True
    return adj


def oracle_bfs(adj, src):
    v = len(adj)
    nbrs = [[w for w in range(v) if adj[u][w]] for u in range(v)]
    dist = [inf] * v
    dist[src] = 0
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for w in nbrs[u]:
            if dist[w] == inf:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def test_enumeration_counts():
    assert len(enumerate_subspaces(F2, 4, 2)) == 35
    assert len(enumerate_subspaces(F5, 3, 3)) == 1
    assert len(enumerate_subspaces(F3, 3, 1)) == 13
    for q, n, k in [(2, 5, 2), (3, 4, 2), (4, 3, 2)]:
        ctx = field_of_order(q)
        assert len(enumerate_subspaces(ctx, n, k)) == subspace_count(n, k, q)


def test_enumeration_matches_pure_python_oracle():
    for ctx, n, k in [(F2, 4, 2), (F3, 3, 2), (field_of_order(4), 3, 1)]:
        idx = enumerate_subspaces(ctx, n, k)
        fast = {tuple(map(tuple, b)) for b in idx.bases.tolist()}
        slow = set(iter_rref_bases(ctx, n, k))
        assert fast == slow


def test_enumeration_sorted_and_duplicate_free():
    idx = enumerate_subspaces(F3, 4, 2)
    flat = [tuple(int(x) for x in b.flatten()) for b in idx.bases]
    assert flat == sorted(flat)
    assert len(set(flat)) == len(flat)


def test_enumeration_cap():
    with pytest.raises(EnumerationTooLargeError):
        enumerate_subspaces(F2, 4, 2, max_count=10)


def test_enumeration_rejects_fields_beyond_uint8():
    """GF(257) is a valid field, but its entries do not fit the uint8
    bases; enumeration must refuse it instead of wrapping entries."""
    with pytest.raises(FieldTooLargeError):
        enumerate_subspaces(field_of_order(257), 2, 1)


def test_index_lookup_roundtrip():
    idx = enumerate_subspaces(F3, 4, 2)
    for i in (0, 5, len(idx) - 1):
        assert index_of(idx, idx.subspace_at(i)) == i
    with pytest.raises(VertexAbsentError):
        index_of(idx, Subspace.full(F3, 4))


def test_strength_all_matches_scalar():
    """The column-prefix kernel's strengths agree with the scalar
    column-independence test of codes.strength; (5,4,2) and (9,3,2) are
    rich in MDS codes, whose dual distance is k + 1 and whose strength is
    the cap k."""
    cases = [(ctx, n, k) for ctx, n in ((F2, 4), (F3, 4), (field_of_order(4), 3)) for k in range(n + 1)]
    cases += [(F5, 4, 2), (field_of_order(9), 3, 2)]
    for ctx, n, k in cases:
        idx = enumerate_subspaces(ctx, n, k)
        bulk_strengths = idx.strength_all()
        for i in range(len(idx)):
            assert int(bulk_strengths[i]) == strength(LinearCode(idx.subspace_at(i))), (ctx.q, n, k, i)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_strength_all_matches_column_rank_oracle(q):
    """Every index of at most 2^15 subspaces with n <= 6, every k in 0..n,
    and (3,0,0): the column-prefix kernel gives the strengths of the shortest
    dependent column subsets."""
    cases = [
        (n, k) for n in range(1, 7) for k in range(n + 1) if subspace_count(n, k, q) <= 1 << 15
    ]
    if q == 3:
        cases.append((0, 0))
    for n, k in cases:
        idx = enumerate_subspaces(field_of_order(q), n, k)
        want = strengths_by_column_rank(idx.ctx, idx.bases, n, k)
        got = idx.strength_all()
        assert got.dtype == np.int16 and (got == want).all(), (q, n, k)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27])
def test_class_bases_match_oracles(q):
    """The column-prefix kernel on every index of at most 2^15 subspaces
    with n <= 6, (3,0,0), k = 0 and k = n included: its rows are the
    pivot-pattern oracle's, each once, and its int16 strengths are those
    of the dual words and of the shortest dependent column subsets, so for
    every t in [0, k] the rows it gives strength >= t are the class of the
    oracles, empty classes included.  Long codes with n - k = 1 (up to
    (2,12,11)) are pinned to the dual words."""
    ctx = field_of_order(q)
    cases = [(n, k) for n in range(7) for k in range(n + 1) if subspace_count(n, k, q) <= 1 << 15]
    if q in (2, 3):
        cases += [(n, n - 1) for n in range(7, 13 if q == 2 else 9)]
    empty = 0
    for n, k in cases:
        idx = enumerate_subspaces(ctx, n, k)
        dual = dual_word_strengths(ctx, idx.bases, n, k)
        if n <= 6:
            assert (dual == strengths_by_column_rank(ctx, idx.bases, n, k)).all(), (q, n, k)
            slow = sorted(iter_rref_bases(ctx, n, k))
            slow = np.array(slow, dtype=np.uint8).reshape(len(slow), k, n)
            assert (idx.bases == slow).all(), (q, n, k)
        rows, strengths = grassmann._class_bases(ctx, n, k)
        assert rows.shape == idx.bases.shape and strengths.dtype == np.int16, (q, n, k)
        for t in range(k + 1):
            got, want = sorted_bases(rows[strengths >= t]), idx.bases[dual >= t]
            assert got.shape == want.shape and (got == want).all(), (q, n, k, t)
            empty += not len(want)
        assert (idx.strength_all() == dual).all(), (q, n, k)
    # F_2 and F_3 have empty classes: no [4,2]_2 or [5,2]_3 code has strength 2
    assert empty or q > 3


def test_strength_all_runs_no_reduction(monkeypatch):
    """Strengths are read off the RREF bases as they are: no batched RREF,
    on indexes with k < n-k, k > n-k and k = n-k."""

    def refuse(*args, **kwargs):
        raise AssertionError("strengths must not reduce")

    monkeypatch.setattr(bulk, "batched_rref", refuse)
    for q, n, k in [(2, 6, 2), (4, 5, 3), (3, 6, 3)]:
        assert len(enumerate_subspaces(field_of_order(q), n, k).strength_all())


def test_strength_all_stays_small():
    """(3,6,3): enumeration with its strengths peaks below four times the
    V x k x n uint8 bases (the column-subset scan peaked at 5.3 times), and
    the strengths match the column rank oracle."""
    tracemalloc.start()
    try:
        idx = enumerate_subspaces(F3, 6, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (idx.strength_all() == strengths_by_column_rank(F3, idx.bases, 6, 3)).all()
    assert peak < 4 * idx.bases.nbytes


def test_strengths_of_k_equals_n_stay_small():
    """With k = n no column is free, so the kernel grows no combinations:
    the single [7,7]_16 code has strength 7 at a peak of a few kilobytes
    (the strengths once grew every combination of up to six columns and
    ran out of memory)."""
    tracemalloc.start()
    try:
        strengths = enumerate_subspaces(field_of_order(16), 7, 7).strength_all()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert strengths.tolist() == [7]
    assert peak < 1 << 16


def test_grassmann_distance_examples():
    a = Subspace.from_vectors(F2, 4, [(1, 0, 0, 0), (0, 1, 0, 0)])
    b = Subspace.from_vectors(F2, 4, [(0, 0, 1, 0), (0, 0, 0, 1)])
    c = Subspace.from_vectors(F2, 4, [(1, 0, 0, 0), (0, 0, 1, 0)])
    assert grassmann_distance(a, a) == 0
    assert grassmann_distance(a, b) == 2
    assert grassmann_distance(a, c) == 1
    # agrees with k - dim of the intersection computed independently
    assert grassmann_distance(a, c) == a.dim - intersect(a, c).dim
    with pytest.raises(DimensionMismatchError):
        grassmann_distance(a, Subspace.from_vectors(F2, 4, [(1, 0, 0, 0)]))


def test_build_delta_masks():
    idx = enumerate_subspaces(F2, 3, 2)
    d1 = build_delta(idx, 1)
    assert d1.num_vertices == 4  # 7 planes minus the 3 with a zero column
    with pytest.raises(BadTError):
        build_delta(idx, 0)
    with pytest.raises(BadTError):
        build_delta(idx, 3)


def test_build_delta_empty_class():
    # no MDS [4,2] code over GF(2)
    idx = enumerate_subspaces(F2, 4, 2)
    d = build_delta(idx, 2)
    assert d.num_vertices == 0
    summary = diameter_and_connectivity(d)
    assert summary.connected and summary.diameter is None
    assert summary.component_count == 0


def test_adjacency_routes_agree():
    for ctx, n, k in [(F2, 4, 2), (F3, 4, 2), (F2, 5, 2), (field_of_order(4), 4, 2)]:
        g = enumerate_subspaces(ctx, n, k)
        fast = g.adjacency()
        slow = adjacency_pairwise(g)
        assert (fast == slow).all()
    for ctx, n, k in [(F2, 4, 2), (F3, 4, 2)]:
        g = enumerate_subspaces(ctx, n, k)
        oracle = np.array(oracle_adjacency(g))
        assert (g.adjacency() == oracle).all()


def test_complete_graph_shortcuts():
    for n, k in [(4, 1), (4, 3), (5, 4)]:
        g = enumerate_subspaces(F3, n, k)
        a = g.adjacency()
        assert a.sum() == g.num_vertices * (g.num_vertices - 1)
        assert (a == adjacency_pairwise(g)).all()
        s = diameter_and_connectivity(g)
        assert s.connected and s.diameter == 1 == min(k, n - k)


def test_bfs_against_oracle():
    g = enumerate_subspaces(F2, 4, 2)
    adj = oracle_adjacency(g)
    for src in range(0, g.num_vertices, 7):
        fast = bfs_distances(g, src)
        slow = oracle_bfs(adj, src)
        assert [x if x != inf else inf for x in fast.tolist()] == slow
    # eccentricity of any vertex of this graph is 2
    assert max(bfs_distances(g, 0)) == 2


# (q, n, k): both bucket sides (k < n-k, k = n-k, k > n-k), k = 1 and k = n-1
INCIDENCE_CASES = [
    (2, 5, 2), (2, 4, 2), (3, 4, 2), (2, 5, 3), (3, 5, 3),
    (3, 4, 1), (2, 5, 1), (3, 4, 3), (2, 5, 4),
]


def test_incidence_adjacency_matches_pairwise_oracle():
    for q, n, k in INCIDENCE_CASES:
        idx = enumerate_subspaces(field_of_order(q), n, k)
        inc = idx.buckets().inc
        assert inc.shape == (len(idx), min(q_int(k, q), q_int(n - k, q)))
        assert (idx.adjacency() == adjacency_pairwise(idx)).all(), (q, n, k)
        for t in range(1, k + 1):
            delta = build_delta(idx, t)
            assert (delta.adjacency() == adjacency_pairwise(delta)).all(), (q, n, k, t)
    empty = build_delta(enumerate_subspaces(F2, 4, 2), 2)
    single = build_delta(enumerate_subspaces(F2, 2, 1), 1)
    for g in (empty, single):
        assert g.adjacency().shape == (g.num_vertices, g.num_vertices)
        assert not g.adjacency().any()


def _assert_buckets_match_stable_oracle(keys, case):
    """_Buckets numbers keys as the stable-sort oracle does, member for
    member in the same order, with int32 ids and members."""
    got = grassmann._Buckets(keys)
    inc, members, starts, cuts = buckets_stable(keys)
    assert got.inc.dtype == got.members.dtype == np.int32, case
    assert got.inc.shape == inc.shape and (got.inc == inc).all(), case
    assert got.starts.tolist() == starts.tolist() and got.cuts.tolist() == cuts.tolist(), case
    assert got.members.tolist() == members.tolist(), case


def test_buckets_number_raw_keys():
    """_Buckets numbers raw keys (gaps, any order, repeats inside a row, few
    or all distinct) 0..B-1 in key order, as np.unique would, and gathers
    them as the stable-sort oracle does."""
    rng = np.random.default_rng(5)
    cases = [rng.choice(1 << 40, size=40, replace=False)[rng.integers(0, 40, size=(30, 4))]]
    for v, h, distinct in [(300, 7, 50), (1000, 3, 3000), (64, 1, 5), (1, 9, 4)]:
        pool = rng.choice(1 << 50, size=distinct, replace=False)
        cases.append(pool[rng.integers(0, distinct, size=(v, h))])
    cases += [np.array([[7, 3, 9]]), np.zeros((5, 0), dtype=np.int64)]
    cases.append(np.zeros((0, 4), dtype=np.int64))
    cases += _wide_key_cases(rng)
    for keys in cases:
        ids = np.unique(keys, return_inverse=True)[1].reshape(keys.shape)
        assert (grassmann._Buckets(keys).inc == ids).all()
        _assert_buckets_match_stable_oracle(keys, keys.shape)


def _wide_key_cases(rng):
    """Keys near 2^62 and up to 2^63 - 1, whose bits plus the bits of a
    position exceed the 63 of a packed word, so _Buckets ranks them first."""
    top = np.iinfo(np.int64).max
    cases = []
    for v, h, distinct in [(200, 6, 30), (50, 4, 200), (3, 2, 6)]:
        pool = (1 << 62) - 1 - rng.choice(1 << 40, size=distinct, replace=False)
        cases.append(pool[rng.integers(0, distinct, size=(v, h))])
    cases.append(np.array([[top, 0, 5], [1 << 62, top, 0]]))
    for keys in cases:
        assert int(keys.max()).bit_length() + (keys.size - 1).bit_length() > 63
    return cases


@pytest.mark.parametrize("q, n, k", [(2, 5, 3), (3, 4, 3)])
def test_annihilators_built_once(monkeypatch, q, n, k):
    """When 2k > n, points, buckets and orbits all read one annihilator
    table of the index's bases."""
    idx = enumerate_subspaces(field_of_order(q), n, k)
    original = grassmann._annihilators
    calls = []

    def counted(ctx, bases, *args):
        calls.append(bases is idx.bases)
        return original(ctx, bases, *args)

    monkeypatch.setattr(grassmann, "_annihilators", counted)
    idx.span_keys(1), idx.span_keys(n - k - 1), idx.orbit_labels()
    assert sum(calls) == 1


def test_incidence_keeps_no_int64_digit_copy():
    """The bucket keys are built without an int64 copy of the V x h RREF
    digit blocks, 8 V h (k-1) n bytes at (3,6,3)."""
    idx = enumerate_subspaces(F3, 6, 3)
    digits = len(idx) * q_int(3, 3) * 2 * 6
    tracemalloc.start()
    try:
        idx.span_keys(2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * digits


def test_orbit_labels_stay_small():
    """Symmetry images are built and keyed a chunk of rows at a time, so the
    orbit labels of Δ(3,6,3,1) (27,200 codes) peak below six times the
    (V, kk, n) small bases they read; keyed whole they peaked at 17 times."""
    delta = build_delta(enumerate_subspaces(F3, 6, 3), 1)
    small = delta._small_bases()
    assert small.shape == (27200, 3, 6)
    tracemalloc.start()
    try:
        delta.orbit_labels()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * small.nbytes


def test_point_keys_stay_small():
    """The point keys peak below four times the V x [kk]_q x n uint8 point
    blocks at (3,6,3): no reduction copies or gathers them."""
    idx = enumerate_subspaces(F3, 6, 3)
    blocks = len(idx) * q_int(3, 3) * 6
    tracemalloc.start()
    try:
        idx.span_keys(1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * blocks


def test_point_and_bucket_keys_run_no_reduction(monkeypatch):
    """Points and buckets are keyed with no batched RREF (see _span_keys),
    on the index's own bases when k <= n-k and on the reversed annihilators
    when 2k > n; each equals the keys of the reduced spans of the reduced
    small bases."""
    cases = [(3, 5, 2), (2, 6, 3), (3, 5, 3), (2, 6, 4)]
    expected = []
    for q, n, k in cases:
        ctx = field_of_order(q)
        small = enumerate_subspaces(ctx, n, k).bases
        if 2 * k > n:
            small = grassmann._annihilators(ctx, small, n, k)[:, ::-1, ::-1]
        small = bulk.batched_rref(ctx, small)[0]
        rs = {1, small.shape[1] - 1}
        expected.append({r: _row_space_keys(ctx, small, r) for r in rs})
    indexes = [enumerate_subspaces(field_of_order(q), n, k) for q, n, k in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("span keys must not reduce")

    monkeypatch.setattr(bulk, "batched_rref", refuse)
    for idx, keys in zip(indexes, expected):
        for r, want in keys.items():
            assert (idx.span_keys(r) == want).all(), (idx.ctx.q, idx.n, idx.k, r)


def test_span_keys_built_once_per_r(monkeypatch):
    """(4,5,2) has kk = 2, where buckets are points: across Γ's check and
    every Δ's BFS, metric and witness search, with each Δ cut from the one
    before it as verify_group cuts them, the index keys its spans once and
    numbers them once; each Δ restricts the numbering it is cut with."""
    idx = enumerate_subspaces(field_of_order(4), 5, 2)
    calls = {"keys": 0, "buckets": 0}
    span_keys, buckets = grassmann._span_keys, grassmann._Buckets

    def counted_keys(*args):
        calls["keys"] += 1
        return span_keys(*args)

    def counted_buckets(keys):
        calls["buckets"] += 1
        return buckets(keys)

    monkeypatch.setattr(grassmann, "_span_keys", counted_keys)
    monkeypatch.setattr(grassmann, "_Buckets", counted_buckets)
    assert gamma_diameter(idx) == 2
    isometric, delta = [], idx
    for t in (1, 2):
        delta = build_delta(delta, t)
        assert diameter_and_connectivity(delta).connected
        isometric.append(isometry_check(delta).isometric)
    assert isometric == [True, False]  # t = 2 searches for witnesses too
    assert calls == {"keys": 1, "buckets": 1}


def test_class_count_matches_engine():
    """linalg.class_count equals the engine's class size for t = 1 and 2
    on every index of at most 2^18 subspaces with q <= 9 and n <= 6."""
    checked = 0
    for q in (2, 3, 4, 5, 7, 8, 9):
        ctx = field_of_order(q)
        for n in range(7):
            for k in range(n + 1):
                if subspace_count(n, k, q) > 1 << 18:
                    continue
                strengths = enumerate_subspaces(ctx, n, k).strength_all()
                for t in (1, 2):
                    want = int((strengths >= t).sum())
                    assert class_count(n, k, t, q) == want, (q, n, k, t)
                    checked += 1
    assert checked == 358



def test_class_count_at_t_equals_k_matches_engine():
    """linalg.class_count's t = k >= 3 forms equal the engine's class
    sizes: the dual t <= 2 form when n - k <= 2 (k = n included), on every
    index of at most 2^18 subspaces with q <= 9 and n <= 8, and the 6-arc
    form at (n, k) = (6, 3) for q <= 5, enumerated past ENUM_CAP at q = 5
    (2,558,556 subspaces), where it gives 0, 0, 486 and 6,144."""
    arcs = []
    checked = 0
    for q in (2, 3, 4, 5, 7, 8, 9):
        ctx = field_of_order(q)
        for n in range(4, 9):
            for k in range(max(3, n - 2), n + 1):
                if subspace_count(n, k, q) > 1 << 18:
                    continue
                want = int((enumerate_subspaces(ctx, n, k).strength_all() >= k).sum())
                assert k == n or class_count(n, k, k, q) == class_count(n, n - k, n - k, q)
                assert class_count(n, k, k, q) == want, (q, n, k)
                checked += 1
        if q <= 5:
            graph = enumerate_subspaces(ctx, 6, 3, max_count=subspace_count(6, 3, q))
            arcs.append(int((graph.strength_all() >= 3).sum()))
            assert class_count(6, 3, 3, q) == arcs[-1], q
            del graph
    assert arcs == [0, 0, 486, 6144]
    assert checked == 76
    assert class_count(6, 4, 3, 2) is class_count(7, 3, 3, 5) is None

SPAN_KEY_GRID = {
    q: [
        (n, k)
        for n in range(1, 9)
        for k in range(n + 1)
        if subspace_count(n, k, q) <= 1 << 17
    ]
    for q in (2, 3, 4, 5, 7, 8, 9, 16, 25, 27)
}


def _narrowest_key_dtype(bound):
    """uint16 for keys below 2^16, uint32 below 2^32, else int64."""
    return np.uint16 if bound <= 1 << 16 else np.uint32 if bound <= 1 << 32 else np.int64


@pytest.mark.parametrize("q", sorted(SPAN_KEY_GRID))
def test_span_keys_match_block_oracle(q):
    """The entrywise span keys equal the keys of the whole span blocks for
    every r in [0, kk], on the index's own bases when 2k <= n and on the
    reversed annihilators when 2k > n, on every index of at most 2^17
    subspaces with n <= 8, held in the narrowest of uint16, uint32 and
    int64 that holds q^(r n) - 1.  At q = 25 and 27 those all have
    kk <= 1, so random RREF bases [I | X] with kk = 2 and 3 make every
    field encoding (XOR, spread digits with e = 1, 2 and 3) sum two and
    three terms, their keys in all three widths."""
    ctx = field_of_order(q)
    cases = {(n, k): enumerate_subspaces(ctx, n, k)._small_bases() for n, k in SPAN_KEY_GRID[q]}
    rng = np.random.default_rng(q)
    for kk in (2, 3):
        free = rng.integers(0, q, size=(1 << 10, kk, 3), dtype=np.uint8)
        eye = np.broadcast_to(np.eye(kk, dtype=np.uint8), (1 << 10, kk, kk))
        cases[kk + 3, "random"] = np.concatenate((eye, free), axis=2)
    for case, bases in cases.items():
        for r in range(bases.shape[1] + 1):
            want = span_keys_by_blocks(ctx, bases, r)
            got = grassmann._span_keys(ctx, bases, r)
            assert got.dtype == _narrowest_key_dtype(q ** (r * case[0])), (q, case, r)
            assert got.shape == want.shape, (q, case, r)
            assert (got == want).all(), (q, case, r)


def _row_space_keys(ctx, bases, r):
    """Keys of RREF(C B) over the small bases B, reduced by batched_rref."""
    spans = span_blocks(ctx, bases, r)
    v, m, _, n = spans.shape
    canon = bulk.batched_rref(ctx, spans.reshape(v * m, r, n))[0]
    return grassmann._keys(ctx.q, canon).reshape(v, m)


RREF_GRID = {
    q: [(n, k) for n in range(2, 7) for k in range(1, n) if subspace_count(n, k, q) <= 1 << 15]
    for q in (2, 3, 4, 5, 7, 8, 9)
}


@pytest.mark.parametrize("q", sorted(RREF_GRID))
def test_keyed_blocks_are_already_rref(monkeypatch, q):
    """Every block the engine keys without reducing it is RREF, so batched_rref
    returns it unchanged: the reversed annihilators that are the small bases
    when 2k > n, the span blocks C B for every r in 1..kk-1, and every
    symmetry image _orbit_labels keys chunk by chunk (the last-column
    scaling and the Frobenius image among them)."""
    ctx = field_of_order(q)
    keys, seen = grassmann._keys, []

    def recording(base, blocks):
        seen.append(blocks)
        return keys(base, blocks)

    monkeypatch.setattr(grassmann, "_keys", recording)
    for n, k in RREF_GRID[q]:
        idx = enumerate_subspaces(ctx, n, k)
        bases = idx._small_bases()
        if 2 * k > n:
            flipped = grassmann._annihilators(ctx, idx.bases, n, k)[:, ::-1, ::-1]
            assert (bases == flipped).all(), (q, n, k)
            assert (bulk.batched_rref(ctx, bases)[0] == bases).all(), (q, n, k)
        for r in range(1, bases.shape[1]):
            spans = span_blocks(ctx, bases, r)
            canon, ranks = bulk.batched_rref(ctx, spans.reshape(-1, r, n))
            assert (canon == spans.reshape(-1, r, n)).all() and (ranks == r).all(), (q, n, k, r)
            assert (keys(q, spans) == grassmann._span_keys(ctx, bases, r)).all(), (q, n, k, r)
        seen.clear()
        grassmann._orbit_labels(ctx, bases)
        assert sum(map(len, seen)) == len(bases) * (3 + (q > 2) + (ctx.e > 1))
        for image in seen:
            assert (bulk.batched_rref(ctx, image)[0] == image).all(), (q, n, k)


@pytest.mark.parametrize("q", sorted(RREF_GRID))
def test_permutation_images_match_batched_rref(q):
    """The closed-form images of the small bases under the transposition
    (0 1) and the n-cycle equal batched_rref of the permuted bases on every
    index of RREF_GRID, 2k > n, kk = 1 and n = 2 among them."""
    ctx = field_of_order(q)
    for n, k in RREF_GRID[q]:
        bases = enumerate_subspaces(ctx, n, k)._small_bases()
        images = grassmann._permutation_images(ctx, bases)
        for image, cols in zip(images, ([1, 0, *range(2, n)], np.roll(np.arange(n), 1))):
            assert (image == bulk.batched_rref(ctx, bases[:, :, cols])[0]).all(), (q, n, k)


@pytest.mark.parametrize("q", sorted(RREF_GRID))
def test_buckets_match_stable_oracle_on_span_keys(q):
    """Every span-key table, r in [0, kk], of every index of RREF_GRID."""
    ctx = field_of_order(q)
    for n, k in RREF_GRID[q]:
        idx = enumerate_subspaces(ctx, n, k)
        for r in range(min(k, n - k) + 1):
            _assert_buckets_match_stable_oracle(idx.span_keys(r), (q, n, k, r))


@pytest.mark.parametrize("q", sorted(RREF_GRID))
def test_restricted_buckets_match_fresh_numbering(q):
    """Every strength class of every index of RREF_GRID, each cut from the
    one before it as verify_group cuts them, the first from the full
    graph: for every r in [0, kk] the restriction of the source's
    numbering is array for array the numbering of the class's own keys."""
    ctx = field_of_order(q)
    for n, k in RREF_GRID[q]:
        idx = enumerate_subspaces(ctx, n, k)
        for r in range(min(k, n - k) + 1):
            keys, numbered = idx.span_keys(r), grassmann._Buckets(idx.span_keys(r))
            strengths = idx.strength_all()
            for t in range(1, k + 1):
                keep = strengths >= t
                got = numbered.restricted(keep, np.cumsum(keep) - 1)
                keys, strengths = keys[keep], strengths[keep]
                numbered = grassmann._Buckets(keys)
                for name in ("inc", "members", "starts", "cuts"):
                    want, have = getattr(numbered, name), getattr(got, name)
                    assert have.dtype == want.dtype and have.shape == want.shape, (q, n, k, r, t, name)
                    assert (have == want).all(), (q, n, k, r, t, name)


@pytest.mark.parametrize("q", sorted(RREF_GRID))
def test_cut_classes_carry_orbit_labels(q):
    """Over the same grid, a class cut from a graph with orbit labels, the
    first from the keyed full graph and each later one from the class
    before it, carries labels equal to _orbit_labels run on its own small
    bases."""
    ctx = field_of_order(q)
    for n, k in RREF_GRID[q]:
        graph = enumerate_subspaces(ctx, n, k)
        graph.orbit_labels()
        for t in range(1, k + 1):
            graph = build_delta(graph, t)
            assert graph._orbits is not None, (q, n, k, t)
            own = grassmann._orbit_labels(ctx, graph._small_bases())
            assert graph._orbits.tolist() == own.tolist(), (q, n, k, t)


def test_build_delta_rejects_straddling_orbit():
    """An orbit whose strengths straddle t means a broken index: cut from a
    graph with orbit labels, that class is refused.  The last subspace of
    (3,4,2) has strength 1; raised to 2, its orbit straddles t = 2, in the
    full graph and in the strength-1 class alike, while t = 1 still keeps
    the whole orbit."""
    for source in ("full", "class"):
        idx = enumerate_subspaces(F3, 4, 2)
        idx.orbit_labels()
        graph = idx if source == "full" else build_delta(idx, 1)
        assert graph.strength_all()[-1] == 1
        graph._strengths = graph._strengths.copy()
        graph._strengths[-1] += 1
        assert build_delta(graph, 1).num_vertices == np.count_nonzero(graph.strength_all() >= 1)
        with pytest.raises(InternalInvariantError):
            build_delta(graph, 2)


def test_buckets_hold_one_int64_order():
    """Numbering Γ's buckets at (3,6,3) (V = 33,880, h = 13) allocates no
    more than one int64 argsort and the outputs: no full sorted key copy
    and no int64 ids or members."""
    keys = enumerate_subspaces(F3, 6, 3).span_keys(2)
    tracemalloc.start()
    try:
        b = grassmann._Buckets(keys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    outputs = b.inc.nbytes + b.members.nbytes + b.starts.nbytes + b.cuts.nbytes
    assert peak < 8 * keys.size + outputs + (1 << 16)


def test_bucket_ids_widen_at_two_to_the_31(monkeypatch):
    """Ids and members are int32 while V h < 2^31 and int64 from 2^31 on;
    the int64 tables number keys exactly as the int32 ones do."""
    assert grassmann._id_dtype((1 << 31) - 1) is np.int32
    assert grassmann._id_dtype(1 << 31) is np.int64
    keys = enumerate_subspaces(F3, 4, 2).span_keys(1)
    narrow = grassmann._Buckets(keys)
    id_dtype = grassmann._id_dtype
    monkeypatch.setattr(grassmann, "_id_dtype", lambda size: id_dtype(size + (1 << 31)))
    wide = grassmann._Buckets(keys)
    assert wide.inc.dtype == wide.members.dtype == np.int64
    assert (wide.inc == narrow.inc).all() and (wide.members == narrow.members).all()


@pytest.mark.parametrize("dtype", [np.uint32, np.int64])
@pytest.mark.parametrize("bits", [31, 32, 33])
def test_words_are_uint32_up_to_32_bits(monkeypatch, bits, dtype):
    """Keys of bits - 12 bits at 300 x 7 positions (b = 12), held as uint32
    or int64: packed words are uint32 while key bits + b <= 32 and int64
    at 33; either way they hold each key and position in stable order and
    _Buckets numbers them as the stable-sort oracle does.  With uint32
    turned off the words are int64 with the same values, and the
    numbering is array for array the same."""
    rng = np.random.default_rng(bits)
    top = (1 << bits - 12) - 1
    pool = np.r_[rng.choice(top, size=199, replace=False), top]
    keys = pool[rng.integers(0, pool.size, size=(300, 7))].astype(dtype)
    keys[0, 0] = top
    flat = keys.reshape(1, -1)
    order = np.argsort(flat[0], kind="stable")
    words, b = grassmann._sorted_words(flat, bits - 12)
    assert b == 12 and words.dtype == (np.uint32 if bits <= 32 else np.int64)
    assert (words[0] >> b).tolist() == flat[0, order].tolist()
    assert (words[0] & (1 << b) - 1).tolist() == order.tolist()
    _assert_buckets_match_stable_oracle(keys, bits)
    narrow = grassmann._Buckets(keys)
    monkeypatch.setattr(grassmann, "_NARROW_BITS", 0)
    wide, _ = grassmann._sorted_words(flat, bits - 12)
    assert wide.dtype == np.int64 and wide.tolist() == words.tolist()
    for name in ("inc", "members", "starts", "cuts"):
        assert (getattr(grassmann._Buckets(keys), name) == getattr(narrow, name)).all(), name


@pytest.mark.parametrize("q, n, k", [(2, 6, 3), (9, 4, 2), (4, 5, 2), (3, 5, 3)])
def test_wide_words_match_uint32_words(monkeypatch, q, n, k):
    """The engine's uint32 words (Γ's buckets in all four, the orbit keys
    of (2,6,3) and (3,5,3)) give the same bucket numbering, orbit labels,
    gamma_diameter and class verdicts as int64 words, forced by turning
    uint32 off."""
    sorted_words, dtypes = grassmann._sorted_words, set()

    def recording(*args):
        words, b = sorted_words(*args)
        dtypes.add(words.dtype.type)
        return words, b

    def run():
        idx = enumerate_subspaces(field_of_order(q), n, k)
        diameter = gamma_diameter(idx)
        buckets = idx.buckets()
        labels = idx.orbit_labels()
        deltas = [build_delta(idx, t) for t in range(1, k + 1)]
        verdicts = [(diameter_and_connectivity(g), isometry_check(g)) for g in deltas]
        return diameter, [buckets.inc.tolist(), buckets.members.tolist()], labels.tolist(), verdicts

    monkeypatch.setattr(grassmann, "_sorted_words", recording)
    narrow = run()
    assert np.uint32 in dtypes
    dtypes.clear()
    monkeypatch.setattr(grassmann, "_NARROW_BITS", 0)
    assert run() == narrow
    assert dtypes == {np.int64}


def _prime_powers(limit):
    """The q <= limit with exactly one prime divisor."""
    primes = [p for p in range(2, limit + 1) if is_prime(p)]
    return [q for q in range(2, limit + 1) if sum(q % p == 0 for p in primes) == 1]


def test_no_enumerable_group_needs_narrowing():
    """Under ENUM_CAP, for every q <= 256, every span-key table of r < kk
    (r = kk - 1 buckets, r = 1 points) packs keys below q^(r n) with
    positions below V [kk r]_q into at most 48 bits, and the orbit keys,
    below q^(kk n), with positions below V into at most 63: no packed sort
    of the engine ranks its keys first.  Both maxima are at (37,4,2)."""
    buckets, orbits = [], []
    for q in _prime_powers(256):
        n = 1
        while subspace_count(n, 1, q) <= grassmann.ENUM_CAP:
            for k in range(n + 1):
                v, kk = subspace_count(n, k, q), min(k, n - k)
                if v > grassmann.ENUM_CAP:
                    continue
                for r in range(kk):
                    h = subspace_count(kk, r, q)
                    bits = (q ** (r * n) - 1).bit_length() + (v * h - 1).bit_length()
                    buckets.append((bits, (q, n, k, r)))
                orbits.append(((q ** (kk * n) - 1).bit_length() + (v - 1).bit_length(), (q, n, k)))
            n += 1
    assert max(buckets) == (48, (37, 4, 2, 1))
    assert max(orbits) == (63, (37, 4, 2))
    assert grassmann._WORD_BITS == 63


@pytest.mark.parametrize("q", [2, 3, 4, 9, 25, 256])
def test_table_take_matches_2d_gather(q):
    """_table_take(table, a, b) equals table[a, b] for add, sub and mul on
    every pair of elements, and on the broadcast shapes the engine uses:
    (L,) coefficients against (c, r, L) columns, (V, n) rows against (V, 1)
    scales, (V, kk, 1) against (V, 1, n), and equal shapes.  At q = 256
    the index a q + b reaches 65,535."""
    ctx = field_of_order(q)
    add, sub, mul = ctx.np_tables()[:3]
    rng = np.random.default_rng(q)
    a, b = np.divmod(np.arange(q * q), q)
    shapes = [((5,), (4, 3, 5)), ((6, 7), (6, 1)), ((6, 3, 1), (6, 1, 7)), ((6, 3, 7), (6, 3, 7))]
    pairs = [(a.astype(np.uint8), b.astype(np.uint8))]
    pairs += [tuple(rng.integers(0, q, size=s, dtype=np.uint8) for s in shape) for shape in shapes]
    pairs.append((rng.integers(1, q, size=5), pairs[1][1]))  # intp coefficients, as in _class_bases
    for table in (add, sub, mul):
        for x, y in pairs:
            got = grassmann._table_take(table, x, y)
            assert got.dtype == np.uint8 and (got == table[x, y]).all(), (q, x.shape, y.shape)


@pytest.mark.parametrize("q, n, k, r", [(3, 6, 3, 2), (9, 4, 2, 1)])
def test_span_keys_decode_without_intp_copy(q, n, k, r):
    """At p odd the sums are decoded in place (e = 1) or through intp casts
    of a chunk at a time (e > 1), with no intp copy of the (V, m) sums:
    keying peaks under 1.5 times int64 keys of the same size, where an
    intp decode copy alone is as large as those."""
    idx = enumerate_subspaces(field_of_order(q), n, k)
    idx._small_bases()
    tracemalloc.start()
    try:
        keys = idx.span_keys(r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * keys.size


def test_orbit_labels_run_no_reduction(monkeypatch):
    """Orbit labels key every symmetry image as built: no batched RREF, with
    k < n-k, with 2k > n, and with the Frobenius map at q = 9 and q = 8."""

    def refuse(*args, **kwargs):
        raise AssertionError("orbit labels must not reduce")

    monkeypatch.setattr(bulk, "batched_rref", refuse)
    for q, n, k in [(3, 5, 2), (2, 6, 4), (9, 4, 2), (8, 4, 2)]:
        assert len(enumerate_subspaces(field_of_order(q), n, k).orbit_labels())


def test_bitset_all_pairs_matches_oracle_bfs():
    graphs = []
    for q, n, k, t in [(2, 4, 2, None), (2, 5, 3, None), (3, 4, 2, 1), (2, 5, 2, 1), (5, 3, 2, 2)]:
        idx = enumerate_subspaces(field_of_order(q), n, k)
        graphs.append(idx if t is None else build_delta(idx, t))
    # a sparse vertex subset, so some pairs are unreachable
    idx = enumerate_subspaces(F2, 5, 2)
    graphs.append(subgraph(idx, np.arange(0, len(idx), 13)))
    for g in graphs:
        adj = adjacency_pairwise(g).tolist()
        d = all_pairs_distances(g)
        for src in range(g.num_vertices):
            expect = [-1 if x == inf else x for x in oracle_bfs(adj, src)]
            assert d[src].tolist() == expect, (g.n, g.k, g.t, src)
    assert (d == -1).any()


def test_gamma_distance_distribution():
    """A source of the full graph has q^(i^2) [k i]_q [n-k i]_q vertices
    at distance i (the Grassmann graph is distance-regular).  The bitset
    BFS from a few sources at once gives the oracle's rows, and
    gamma_diameter accepts the graph."""
    for q, n, k in [(2, 6, 3), (3, 5, 2), (4, 4, 2), (2, 6, 4), (9, 4, 2)]:
        idx = enumerate_subspaces(field_of_order(q), n, k)
        sources = np.array([0, idx.num_vertices // 2, idx.num_vertices - 1])
        rows = grassmann._bfs(idx.buckets(), sources)
        for col, src in enumerate(sources):
            oracle = bfs_distances(idx, int(src))
            assert rows[:, col].tolist() == oracle.astype(int).tolist(), (q, n, k, src)
            counts = np.bincount(oracle.astype(int)).tolist()
            expect = [
                q ** (i * i) * subspace_count(k, i, q) * subspace_count(n - k, i, q)
                for i in range(min(k, n - k) + 1)
            ]
            assert counts == expect, (q, n, k, src)
        assert gamma_diameter(idx) == min(k, n - k)


def test_gamma_diameter_rejects_corrupt_incidence(monkeypatch):
    """Moving vertex 0 out of one of its buckets changes its BFS levels,
    which the one-source check must catch.  The graph keeps the buckets
    it numbers, so the corrupt keys go to a fresh one."""
    original = GrassmannGraph.span_keys

    def corrupted(index, r):
        inc = original(index, r).copy()
        inc[0, 0] = inc[0, 1]
        return inc

    assert gamma_diameter(enumerate_subspaces(F2, 4, 2)) == 2
    monkeypatch.setattr(GrassmannGraph, "span_keys", corrupted)
    with pytest.raises(InternalInvariantError):
        gamma_diameter(enumerate_subspaces(F2, 4, 2))


def test_bfs_in_row_blocks_matches_whole(monkeypatch):
    """_bfs unpacks the unreached bits a block of _BFS_ROWS vertices at a
    time; with blocks of 3 rows it gives the distances of one whole block,
    on the full graph, a strength class and disconnected hand-built
    subsets, whose -1 marks are written block by block too."""
    idx = enumerate_subspaces(F3, 4, 2)
    graphs = [idx, build_delta(idx, 1), subgraph(idx, [0, 1, 5, 40, 77, 100, 129])]
    graphs.append(subgraph(enumerate_subspaces(F2, 5, 2), np.arange(0, 155, 4)))
    whole = [grassmann._bfs(g.buckets(), np.arange(g.num_vertices)) for g in graphs]
    assert any((rows < 0).any() for rows in whole)
    monkeypatch.setattr(grassmann, "_BFS_ROWS", 3)
    for g, rows in zip(graphs, whole):
        assert (grassmann._bfs(g.buckets(), np.arange(g.num_vertices)) == rows).all()


def test_blocks_of_v_entries_match_floor(monkeypatch):
    """The loops that go V entries at a time take at least _MIN_BLOCK; with
    the floor at 1 they take V, several chunks here, and give the same
    numbering, the same restriction to a class and the same BFS and
    metric rows as with it."""

    def run():
        idx = enumerate_subspaces(F3, 4, 2)
        idx.buckets()
        delta = build_delta(idx, 1)
        return [
            (b.inc.tolist(), b.members.tolist(), b.starts.tolist(), b.cuts.size)
            for b in (idx.buckets(), delta.buckets())
        ] + [all_pairs_distances(g).tolist() for g in (idx, delta)] + [
            metric_distance_matrix(delta).tolist()
        ]

    floored = run()
    monkeypatch.setattr(grassmann, "_MIN_BLOCK", 1)
    blocked = run()
    assert [b[-1] for b in floored[:2]] == [2, 2]  # one chunk each
    assert min(b[-1] for b in blocked[:2]) > 3
    assert [b[:-1] for b in blocked[:2]] == [b[:-1] for b in floored[:2]]
    assert blocked[2:] == floored[2:]

def test_bfs_source_forms():
    idx = enumerate_subspaces(F2, 4, 2)
    s = idx.subspace_at(3)
    assert bfs_distances(idx, 3).tolist() == bfs_distances(idx, s).tolist()
    assert bfs_distances(idx, LinearCode(s)).tolist() == bfs_distances(idx, 3).tolist()
    with pytest.raises(VertexAbsentError):
        bfs_distances(idx, 99)
    d1 = build_delta(idx, 1)
    degenerate = next(
        idx.subspace_at(i)
        for i in range(len(idx))
        if idx.strength_all()[i] == 0
    )
    with pytest.raises(VertexAbsentError):
        bfs_distances(d1, degenerate)


def test_all_pairs_matches_per_source():
    for ctx, n, k, t in [(F2, 4, 2, 1), (F3, 3, 2, 1), (F5, 3, 2, 2)]:
        idx = enumerate_subspaces(ctx, n, k)
        g = build_delta(idx, t)
        d = all_pairs_distances(g)
        for src in range(g.num_vertices):
            row = bfs_distances(g, src)
            expect = [(-1 if x == inf else int(x)) for x in row.tolist()]
            assert d[src].tolist() == expect


def test_all_pairs_cap():
    g = enumerate_subspaces(F2, 4, 2)
    with pytest.raises(AllPairsTooLargeError):
        all_pairs_distances(g, max_pairs=10)


def test_gamma_diameter_formula():
    for q, n, k in [(2, 4, 2), (3, 4, 2), (2, 5, 2), (5, 3, 2), (4, 4, 2)]:
        ctx = field_of_order(q)
        g = enumerate_subspaces(ctx, n, k)
        s = diameter_and_connectivity(g)
        assert s.connected
        assert s.diameter == min(k, n - k)


def test_gamma_metric_identity():
    """BFS distance in the full graph equals k - dim(x ∩ y), all pairs."""
    for ctx, n, k in [(F2, 4, 2), (F3, 4, 2), (F2, 5, 2)]:
        g = enumerate_subspaces(ctx, n, k)
        bfs = all_pairs_distances(g)
        metric = metric_distance_matrix(g)
        assert (bfs == metric).all()


def test_metric_matrix_matches_rank_route():
    """The point-count metric matrix equals scalar stacked-basis ranks."""
    for ctx, n, k in [(F3, 4, 2), (F2, 5, 3)]:
        g = enumerate_subspaces(ctx, n, k)
        fast = metric_distance_matrix(g)
        subs = [g.subspace_at(i) for i in range(g.num_vertices)]
        for i in range(0, g.num_vertices, 9):
            for j in range(0, g.num_vertices, 11):
                assert fast[i, j] == grassmann_distance(subs[i], subs[j])


def test_metric_matrix_deep_case():
    """min(k, n-k) = 3 over GF(2): shared-point counts need two bit planes."""
    g = enumerate_subspaces(F2, 6, 3)
    m = metric_distance_matrix(g)
    subs = [g.subspace_at(i) for i in range(0, g.num_vertices, 97)]
    ids = list(range(0, g.num_vertices, 97))
    for a, i in zip(subs, ids):
        for b, j in zip(subs, ids):
            assert m[i, j] == grassmann_distance(a, b)
    assert m.max() == 3


@pytest.mark.parametrize(
    "q, n, k, t",
    [
        (4, 4, 2, None),
        (5, 3, 2, None),  # min(k, n-k) = 1 through annihilators
        (3, 5, 3, 2),  # 2k > n with q > 2: annihilator points need a leading 1
        (4, 5, 3, 3),
        (2, 7, 4, 3),  # min(k, n-k) = 3 through annihilators
    ],
)
def test_metric_matches_rank_oracle(q, n, k, t):
    """Every pair of Γ(q,n,k) (t None) or Δ: shared-point counts give the
    same k - dim(x ∩ y) as the stacked-basis ranks."""
    idx = enumerate_subspaces(field_of_order(q), n, k)
    g = idx if t is None else build_delta(idx, t)
    assert g.num_vertices > 1
    assert (metric_distance_matrix(g) == metric_ranks_pairwise(g)).all()


def test_metric_three_bit_planes():
    """Over GF(3) two distinct 3-spaces share up to [2]_3 = 4 points, so the
    counts take three bit planes.  Δ(3,6,3,3) is empty, so a strided vertex
    subset of Γ(3,6,3) stands in."""
    idx = enumerate_subspaces(F3, 6, 3)
    g = subgraph(idx, np.arange(0, len(idx), 97), None)
    m = metric_distance_matrix(g)
    assert (m == metric_ranks_pairwise(g)).all()
    assert set(np.unique(m).tolist()) == {0, 1, 2, 3}


def test_metric_reads_no_edges(monkeypatch):
    """The metric counts shared points: it calls neither the graph's
    adjacency nor `buckets()` nor stacked ranks, so the isometry check
    never compares BFS with the graph's own edges (at min(k, n-k) = 2 both
    read the point buckets, but only the metric counts shared ones).
    Δ(2,6,3,1), with min(k, n-k) = 3 on the spaces themselves, is pinned
    to the rank oracle here on every pair."""
    graphs = [
        enumerate_subspaces(F3, 4, 2),
        build_delta(enumerate_subspaces(F2, 6, 3), 1),
    ]
    expected = [metric_ranks_pairwise(g) for g in graphs]

    def refuse(*args, **kwargs):
        raise AssertionError("the metric must not call this")

    monkeypatch.setattr(GrassmannGraph, "adjacency", refuse)
    monkeypatch.setattr(GrassmannGraph, "buckets", refuse)
    monkeypatch.setattr(bulk, "batched_rref", refuse)
    for g, want in zip(graphs, expected):
        assert (metric_distance_matrix(g) == want).all()


def test_isometry_check_small_instances():
    """Engine agrees with a pure-python oracle comparison, either outcome."""
    for q, n, k, t in [(2, 4, 2, 1), (3, 4, 2, 1), (5, 3, 2, 1), (7, 3, 2, 2)]:
        ctx = field_of_order(q)
        idx = enumerate_subspaces(ctx, n, k)
        d = build_delta(idx, t)
        rep = isometry_check(d)
        adj = oracle_adjacency(d)
        subs = [d.subspace_at(i) for i in range(d.num_vertices)]
        expected = True
        for i in range(d.num_vertices):
            row = oracle_bfs(adj, i)
            for j in range(i + 1, d.num_vertices):
                if row[j] != grassmann_distance(subs[i], subs[j]):
                    expected = False
        assert rep.isometric == expected
        if rep.isometric:
            assert rep.witnesses == []


def test_isometry_check_requires_induced():
    idx = enumerate_subspaces(F2, 4, 2)
    with pytest.raises(BadTError):
        isometry_check(idx)


def test_single_vertex_graph():
    idx = enumerate_subspaces(F2, 2, 1)
    d = build_delta(idx, 1)
    assert d.num_vertices == 1  # only <(1,1)> is non-degenerate
    s = diameter_and_connectivity(d)
    assert s.connected and s.diameter == 0
    assert isometry_check(d).isometric


@pytest.mark.parametrize("q, n, k", [(3, 3, 3), (2, 3, 0), (3, 0, 0)])
def test_one_vertex_indexes(q, n, k):
    """k in {0, n}: one vertex with no points and no buckets (h = 0); with
    n = 0 there is no column to scale either."""
    idx = enumerate_subspaces(field_of_order(q), n, k)
    assert len(idx) == 1
    assert idx.span_keys(-1).shape == idx.span_keys(1).shape == (1, 0)
    assert idx.orbit_labels().tolist() == [0]
    assert gamma_diameter(idx) == 0
    graphs = [idx] + [build_delta(idx, t) for t in range(1, k + 1)]
    for g in graphs:
        assert diameter_and_connectivity(g) == GraphSummary(True, 0, 1)
        assert metric_distance_matrix(g).tolist() == [[0]]
    for g in graphs[1:]:
        assert isometry_check(g).isometric


def test_per_orbit_route_refuses_unclosed_vertex_sets():
    """BFS from one representative per orbit is sound only on a vertex set
    that every symmetry maps onto itself.  Positions 0, 5 and 9 of (2,4,2)
    are not such a set, so diameter_and_connectivity and isometry_check
    refuse it, while the all-pairs routes, which need no symmetry, still
    take it."""
    idx = enumerate_subspaces(F2, 4, 2)
    for route in (diameter_and_connectivity, isometry_check):
        with pytest.raises(InternalInvariantError):
            route(subgraph(idx, [0, 5, 9]))
    g = subgraph(idx, [0, 5, 9])
    assert all_pairs_distances(g).shape == (3, 3)
    assert (metric_distance_matrix(g) == metric_ranks_pairwise(g)).all()


def test_disconnected_vertex_subset():
    """A hand-picked two-vertex induced graph with no edge: infinite
    distances, two components, and a non-isometry witness.  The pair is
    not closed under the symmetries, so the all-pairs oracles and
    `_components` read it."""
    idx = enumerate_subspaces(F2, 4, 2)
    # find a non-adjacent pair
    adj = idx.adjacency()
    i, j = next(
        (a, b)
        for a in range(len(idx))
        for b in range(a + 1, len(idx))
        if not adj[a, b]
    )
    sub = subgraph(idx, sorted((i, j)))
    dist = bfs_distances(sub, 0)
    assert dist[0] == 0 and dist[1] == inf
    s = summary_all_pairs(sub)
    assert not s.connected
    assert s.diameter == inf
    assert s.component_count == 2
    assert np.unique(grassmann._components(sub.buckets())).size == 2
    rep = isometry_all_pairs(sub)
    assert not rep.isometric
    ((wi, wj, d_sub, d_metric),) = rep.witnesses
    assert d_sub == inf and d_metric == 2


def test_subgraph_distance_dominates_metric():
    """Induced-subgraph distances can only exceed the full-graph metric."""
    for q, n, k, t in [(2, 4, 2, 1), (3, 4, 2, 2), (5, 3, 2, 1)]:
        ctx = field_of_order(q)
        idx = enumerate_subspaces(ctx, n, k)
        delta = build_delta(idx, t)
        if delta.num_vertices == 0:
            continue
        d_sub = all_pairs_distances(delta)
        d_met = metric_distance_matrix(delta)
        reached = d_sub >= 0
        assert (d_sub[reached] >= d_met[reached]).all()


def test_monomial_maps_are_graph_automorphisms():
    """Distances in the induced subgraph are preserved by monomial maps."""
    import random

    from grasscodes.codes import apply_monomial

    rng = random.Random(99)
    for q, n, k, t in [(3, 4, 2, 1), (5, 3, 2, 2)]:
        ctx = field_of_order(q)
        idx = enumerate_subspaces(ctx, n, k)
        delta = build_delta(idx, t)
        dist = all_pairs_distances(delta)
        for _ in range(10):
            m = random_monomial(ctx, n, rng)
            i = rng.randrange(delta.num_vertices)
            j = rng.randrange(delta.num_vertices)
            mi = index_of(delta, apply_monomial(m, LinearCode(delta.subspace_at(i))))
            mj = index_of(delta, apply_monomial(m, LinearCode(delta.subspace_at(j))))
            assert dist[mi, mj] == dist[i, j]


# -- the per-orbit route -------------------------------------------------------------


def orbit_partition_oracle(idx):
    """Smallest member of every subspace's orbit, by closing each basis under
    the generators applied row by row in scalar arithmetic, re-canonicalised
    by Subspace.from_vectors and looked up by index_of (union-find)."""
    ctx, n = idx.ctx, idx.n
    alpha = next(
        a for a in range(1, ctx.q) if len({ctx.pow(a, m) for m in range(ctx.q - 1)}) == ctx.q - 1
    )
    maps = [
        lambda r: (r[1], r[0]) + r[2:],
        lambda r: r[1:] + r[:1],
        lambda r: (ctx.mul(alpha, r[0]),) + r[1:],
        lambda r: tuple(ctx.pow(a, ctx.p) for a in r),
    ]
    parent = list(range(len(idx)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i in range(len(idx)):
        rows = idx.subspace_at(i).basis.rows
        for f in maps:
            j = index_of(idx, Subspace.from_vectors(ctx, n, [f(r) for r in rows]))
            a, b = find(i), find(j)
            parent[max(a, b)] = min(a, b)
    return np.array([find(i) for i in range(len(idx))])


@pytest.mark.parametrize(
    "q, n, k",
    [
        (2, 5, 2),
        (4, 4, 2),  # Frobenius
        (3, 5, 3),  # 2k > n: keys on the annihilators
        (9, 3, 2),  # both
        (8, 3, 1),
        (5, 4, 1),  # prime fields with q > 2: bases with last row e_(n-1)
        (7, 4, 2),
    ],
)
def test_orbit_labels_match_scalar_closure(q, n, k):
    idx = enumerate_subspaces(field_of_order(q), n, k)
    labels = idx.orbit_labels()
    assert labels.tolist() == orbit_partition_oracle(idx).tolist()
    strengths = idx.strength_all()
    assert (strengths[labels] == strengths).all()


@pytest.mark.parametrize("q, n, k", [(2, 5, 2), (4, 4, 2), (3, 5, 3), (9, 3, 2)])
def test_orbit_labels_match_scalar_closure_when_narrowed(monkeypatch, q, n, k):
    """With no room in a packed word, _orbit_labels ranks the vertex and
    image keys together, and _Buckets its keys, before packing: the orbits
    match the scalar closure and every class verifies as it does with
    room."""
    idx = enumerate_subspaces(field_of_order(q), n, k)

    def verdicts():
        deltas = [build_delta(idx, t) for t in range(1, k + 1)]
        return [(diameter_and_connectivity(g), isometry_check(g)) for g in deltas]

    wide = verdicts()
    monkeypatch.setattr(grassmann, "_WORD_BITS", 0)
    assert idx.orbit_labels().tolist() == orbit_partition_oracle(idx).tolist()
    assert verdicts() == wide


def test_orbit_labels_are_lazy():
    """Neither enumeration nor a cut class keys orbits: a graph keys its
    own once, on first use, unless it is cut from one that has them, in
    which case it inherits them as its own positions."""
    idx = enumerate_subspaces(F3, 4, 2)
    assert idx._orbits is None
    early = build_delta(idx, 1)
    assert early._orbits is None
    labels = idx.orbit_labels()
    assert idx.orbit_labels() is labels
    delta = build_delta(idx, 1)
    assert delta._orbits is not None and delta.orbit_labels() is delta._orbits
    assert delta.orbit_labels().tolist() == early.orbit_labels().tolist()
    assert build_delta(early, 2).orbit_labels().tolist() == build_delta(idx, 2).orbit_labels().tolist()


@pytest.mark.parametrize("q, n, k, t", [
    (4, 4, 1, 1), (3, 4, 3, 2),  # kk = 1
    (4, 5, 2, 2), (4, 5, 3, 3), (3, 5, 3, 2),  # kk = 2, two with witnesses
    (2, 6, 3, 1), (2, 7, 4, 2), (4, 6, 3, 3),  # kk = 3, the last with witnesses
])
def test_cut_class_matches_standalone_class(q, n, k, t):
    """A class cut from a keyed full graph, after gamma_diameter and with its
    point keys built too, carries the index's small bases and span keys;
    the same rows built alone through the constructor key their own.  Both
    give the same orbit labels, representatives' BFS rows, metric rows and
    isometry witnesses, with 2k > n, e > 1 and kk = 1, 2, 3 covered."""
    idx = enumerate_subspaces(field_of_order(q), n, k)
    gamma_diameter(idx)
    idx.span_keys(1)
    cut = build_delta(idx, t)
    assert cut._span_keys.keys() == idx._span_keys.keys()
    assert (cut._small is not None) == (2 * k > n)
    alone = subgraph(idx, np.flatnonzero(idx.strength_all() >= t), t)
    assert not alone._span_keys and alone._small is None
    assert (cut.bases == alone.bases).all() and (cut.strength_all() == alone.strength_all()).all()
    assert (cut.orbit_labels() == alone.orbit_labels()).all()
    reps, rows = grassmann._orbit_bfs(cut, ALL_PAIRS_CAP)
    alone_reps, alone_rows = grassmann._orbit_bfs(alone, ALL_PAIRS_CAP)
    assert (reps == alone_reps).all() and (rows == alone_rows).all()
    assert (grassmann._metric_rows(cut, reps) == grassmann._metric_rows(alone, reps)).all()
    assert isometry_check(cut).witnesses == isometry_check(alone).witnesses


def test_orbit_labels_reject_mixed_strengths(monkeypatch):
    """Every symmetry preserves strength, so an orbit holding two strengths
    means a broken index, which the per-orbit route must refuse.  Raising
    the last subspace of (3,4,2), [[1,2,2,0],[0,0,0,1]], from strength 1
    to 2 puts it in the strength-2 class without the rest of its orbit:
    that class is no longer closed under the symmetries and is refused,
    while the strength-1 class, which still holds every member of the
    orbit, verifies as before."""
    original = GrassmannGraph.strength_all

    def corrupted(index):
        strengths = original(index).copy()
        strengths[-1] += 1
        return strengths

    idx = enumerate_subspaces(F3, 4, 2)
    assert idx.bases[-1].tolist() == [[1, 2, 2, 0], [0, 0, 0, 1]]
    assert original(idx)[-1] == 1
    monkeypatch.setattr(GrassmannGraph, "strength_all", corrupted)
    idx = enumerate_subspaces(F3, 4, 2)
    assert diameter_and_connectivity(build_delta(idx, 1)).connected
    assert isometry_check(build_delta(idx, 1)).isometric
    for route in (diameter_and_connectivity, isometry_check):
        with pytest.raises(InternalInvariantError):
            route(build_delta(idx, 2))


def test_orbit_labels_reject_mixed_strengths_when_narrowed(monkeypatch):
    """The closure check survives narrowing because the vertex and image
    keys are ranked together: ranked apart, V distinct image keys would
    take the ranks 0..V-1 of the vertices whether or not they are
    vertices."""
    monkeypatch.setattr(grassmann, "_WORD_BITS", 0)
    test_orbit_labels_reject_mixed_strengths(monkeypatch)


ORACLE_GROUPS = {
    q: [(n, k) for n in range(2, 7) for k in range(1, n) if subspace_count(n, k, q) <= 1 << 15]
    for q in (2, 3, 4, 5, 7, 8, 9)
}


@pytest.mark.parametrize("q", sorted(ORACLE_GROUPS))
def test_orbit_route_matches_all_pairs_oracle(q):
    """On every strength class of at most 6,000 vertices over an index of at
    most 2^15 subspaces, the per-orbit route gives the all-pairs oracles'
    GraphSummary and IsometryReport field by field, witness lists included.
    The reduction's premise is pinned too: every vertex has its
    representative's multiset of BFS and of metric distances."""
    for n, k in ORACLE_GROUPS[q]:
        idx = enumerate_subspaces(field_of_order(q), n, k)
        for t in range(1, k + 1):
            d = build_delta(idx, t)
            if not 0 < d.num_vertices <= 6000:
                continue
            reps, rows = grassmann._orbit_bfs(d, ALL_PAIRS_CAP)
            full = all_pairs_distances(d)
            assert (rows == full[:, reps]).all(), (q, n, k, t)
            labels = d.orbit_labels()
            for m in (full, metric_distance_matrix(d)):
                m = np.sort(m, axis=1)
                assert (m == m[labels]).all(), (q, n, k, t)
            assert diameter_and_connectivity(d) == summary_all_pairs(d), (q, n, k, t)
            assert isometry_check(d) == isometry_all_pairs(d), (q, n, k, t)


@pytest.mark.parametrize("k", [2, 3])
def test_orbit_route_witnesses_of_mds_classes(k):
    """Δ(4,5,k,k), k = 2, 3: one orbit of 162 MDS codes, diameter 3 against
    the full graph's 2.  The witnesses are the oracle's first 100 in
    row-major order."""
    d = build_delta(enumerate_subspaces(field_of_order(4), 5, k), k)
    assert d.num_vertices == 162
    assert grassmann._orbit_bfs(d, ALL_PAIRS_CAP)[0].tolist() == [0]
    rep = isometry_check(d)
    assert not rep.isometric and len(rep.witnesses) == 100
    assert rep == isometry_all_pairs(d)
    assert diameter_and_connectivity(d).diameter == 3


@pytest.mark.parametrize("q", [2, 3])
def test_component_count_matches_all_sources(q):
    """Label propagation counts the components of random vertex subsets of
    Γ(q,4,2) as all-sources BFS does: on sparse hand-picked subsets,
    which are not closed under the symmetries, `_components` itself; on
    unions of symmetry orbits, the per-orbit route."""
    idx = enumerate_subspaces(field_of_order(q), 4, 2)
    labels = idx.orbit_labels()
    orbits = np.unique(labels)
    rng = np.random.default_rng(q)
    counts = []
    for trial in range(60):
        if trial % 2:
            ids = np.flatnonzero(np.isin(labels, orbits[rng.random(orbits.size) < 0.5]))
        else:
            ids = np.sort(rng.choice(len(idx), size=rng.integers(2, 12), replace=False))
        g = subgraph(idx, ids)
        oracle = summary_all_pairs(g)
        if trial % 2:
            assert diameter_and_connectivity(g) == oracle, (q, ids.tolist())
        else:
            count = np.unique(grassmann._components(g.buckets())).size
            assert count == oracle.component_count, (q, ids.tolist())
        counts.append(oracle.component_count)
    assert max(counts) > 2  # disconnected subsets were drawn
