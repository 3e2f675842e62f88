import tracemalloc
from collections import deque
from math import inf

import numpy as np
import pytest

from conftest import (
    VertexAbsentError,
    adjacency_pairwise,
    bfs_distances,
    index_of,
    isometry_all_pairs,
    iter_rref_bases,
    metric_ranks_pairwise,
    position_of,
    random_monomial,
    summary_all_pairs,
)
from grasscodes import bulk, grassmann
from grasscodes.codes import LinearCode, strength
from grasscodes.errors import (
    AllPairsTooLargeError,
    BadIndicesError,
    BadTError,
    DimensionMismatchError,
    EnumerationTooLargeError,
    FieldTooLargeError,
    InternalInvariantError,
)
from grasscodes.gf import field_new, field_of_order
from grasscodes.grassmann import (
    ALL_PAIRS_CAP,
    GrassmannGraph,
    GraphSummary,
    SubspaceIndex,
    all_pairs_distances,
    build_delta,
    build_gamma,
    diameter_and_connectivity,
    enumerate_subspaces,
    gamma_diameter,
    grassmann_distance,
    isometry_check,
    metric_distance_matrix,
)
from grasscodes.linalg import Subspace, intersect, q_int, subspace_count

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
    """The scan reads column subsets of at most k columns; (5,4,2) and
    (9,3,2) are rich in MDS codes, whose dual distance is k + 1."""
    cases = [(ctx, n, k) for ctx, n in ((F2, 4), (F3, 4), (field_of_order(4), 3)) for k in range(n + 1)]
    cases += [(F5, 4, 2), (field_of_order(9), 3, 2)]
    for ctx, n, k in cases:
        idx = enumerate_subspaces(ctx, n, k)
        bulk_strengths = idx.strength_all()
        for i in range(len(idx)):
            assert int(bulk_strengths[i]) == strength(LinearCode(idx.subspace_at(i))), (ctx.q, n, k, i)


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
        idx = enumerate_subspaces(ctx, n, k)
        g = build_gamma(idx)
        fast = g.adjacency()
        slow = adjacency_pairwise(g)
        assert (fast == slow).all()
    for ctx, n, k in [(F2, 4, 2), (F3, 4, 2)]:
        g = build_gamma(enumerate_subspaces(ctx, n, k))
        oracle = np.array(oracle_adjacency(g))
        assert (g.adjacency() == oracle).all()


def test_complete_graph_shortcuts():
    for n, k in [(4, 1), (4, 3), (5, 4)]:
        idx = enumerate_subspaces(F3, n, k)
        g = build_gamma(idx)
        a = g.adjacency()
        assert a.sum() == g.num_vertices * (g.num_vertices - 1)
        assert (a == adjacency_pairwise(g)).all()
        s = diameter_and_connectivity(g)
        assert s.connected and s.diameter == 1 == min(k, n - k)


def test_bfs_against_oracle():
    idx = enumerate_subspaces(F2, 4, 2)
    g = build_gamma(idx)
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
        gamma = build_gamma(idx)
        inc = gamma.buckets().inc
        assert inc.shape == (len(idx), min(q_int(k, q), q_int(n - k, q)))
        assert (gamma.adjacency() == adjacency_pairwise(gamma)).all(), (q, n, k)
        for t in range(1, k + 1):
            delta = build_delta(idx, t)
            assert (delta.adjacency() == adjacency_pairwise(delta)).all(), (q, n, k, t)
    empty = build_delta(enumerate_subspaces(F2, 4, 2), 2)
    single = build_delta(enumerate_subspaces(F2, 2, 1), 1)
    for g in (empty, single):
        assert g.adjacency().shape == (g.num_vertices, g.num_vertices)
        assert not g.adjacency().any()


def test_buckets_number_raw_keys():
    """_Buckets numbers raw keys (gaps, any order) 0..B-1 in key order, as
    np.unique would, and gathers the same members and starts."""
    rng = np.random.default_rng(5)
    cases = [rng.choice(1 << 40, size=40, replace=False)[rng.integers(0, 40, size=(30, 4))]]
    cases += [np.array([[7, 3, 9]]), np.zeros((5, 0), dtype=np.int64)]
    for keys in cases:
        raw = grassmann._Buckets(keys)
        ids = np.unique(keys, return_inverse=True)[1].reshape(keys.shape)
        compact = grassmann._Buckets(ids)
        assert (raw.inc == ids).all() and raw.inc.shape == keys.shape
        assert raw.members.tolist() == compact.members.tolist()
        assert raw.starts.tolist() == compact.starts.tolist()
        assert raw.cuts.tolist() == compact.cuts.tolist()


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
    idx.point_keys(), idx.incidence(), idx.orbit_labels()
    assert sum(calls) == 1


def test_incidence_keeps_no_int64_digit_copy():
    """The bucket keys are built without an int64 copy of the V x h RREF
    digit blocks, 8 V h (k-1) n bytes at (3,6,3)."""
    idx = enumerate_subspaces(F3, 6, 3)
    digits = len(idx) * q_int(3, 3) * 2 * 6
    tracemalloc.start()
    try:
        idx.incidence()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * digits


def test_point_keys_stay_small():
    """The point keys peak below four times the V x [kk]_q x n uint8 point
    blocks at (3,6,3): no reduction copies or gathers them."""
    idx = enumerate_subspaces(F3, 6, 3)
    blocks = len(idx) * q_int(3, 3) * 6
    tracemalloc.start()
    try:
        idx.point_keys()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * blocks


def test_point_and_bucket_keys_run_no_reduction(monkeypatch):
    """When k <= n-k the small bases are the index's own, and points and
    buckets are keyed with no batched RREF (see _span_keys)."""
    indexes = [enumerate_subspaces(F3, 5, 2), enumerate_subspaces(F2, 6, 3)]
    expected = [(_row_space_keys(idx, 1), _row_space_keys(idx, idx.k - 1)) for idx in indexes]

    def refuse(*args, **kwargs):
        raise AssertionError("span keys must not reduce")

    monkeypatch.setattr(bulk, "batched_rref", refuse)
    for idx, (points, buckets) in zip(indexes, expected):
        assert (idx.point_keys() == points).all()
        assert (idx.incidence() == buckets).all()


def _span_blocks(ctx, bases, r):
    """(V, [kk r]_q, r, n) blocks C B, C the RREF basis of every r-subspace
    of F_q^kk, before any reduction."""
    add, _, mul, _, _ = ctx.np_tables()
    v, kk, n = bases.shape
    coeffs = enumerate_subspaces(ctx, kk, r).bases
    spans = np.zeros((v, len(coeffs), r, n), dtype=np.uint8)
    for i in range(kk):
        spans = add[spans, mul[coeffs[None, :, :, i, None], bases[:, None, None, i, :]]]
    return spans


def _row_space_keys(idx, r):
    """Keys of RREF(C B) over the small bases B, reduced by batched_rref."""
    bases = idx._small_bases()
    spans = _span_blocks(idx.ctx, bases, r)
    v, m = spans.shape[:2]
    canon = bulk.batched_rref(idx.ctx, spans.reshape(v * m, r, idx.n))[0]
    return grassmann._keys(idx.ctx.q, canon).reshape(v, m)


RREF_GRID = {
    q: [(n, k) for n in range(2, 7) for k in range(1, n) if subspace_count(n, k, q) <= 1 << 15]
    for q in (2, 3, 4, 5, 7, 8, 9)
}


@pytest.mark.parametrize("q", sorted(RREF_GRID))
def test_keyed_blocks_are_already_rref(monkeypatch, q):
    """Every block the engine keys without reducing it is RREF, so batched_rref
    returns it unchanged: the span blocks C B for every r in 1..kk-1, and
    every symmetry image _orbit_labels keys (the last-column scaling and the
    Frobenius image among them)."""
    ctx = field_of_order(q)
    keys, seen = grassmann._keys, []

    def recording(base, blocks):
        seen.append(blocks)
        return keys(base, blocks)

    monkeypatch.setattr(grassmann, "_keys", recording)
    for n, k in RREF_GRID[q]:
        idx = enumerate_subspaces(ctx, n, k)
        bases = idx._small_bases()
        for r in range(1, bases.shape[1]):
            spans = _span_blocks(ctx, bases, r)
            canon, ranks = bulk.batched_rref(ctx, spans.reshape(-1, r, n))
            assert (canon == spans.reshape(-1, r, n)).all() and (ranks == r).all(), (q, n, k, r)
            assert (keys(q, spans) == grassmann._span_keys(ctx, bases, r)).all(), (q, n, k, r)
        seen.clear()
        grassmann._orbit_labels(ctx, bases)
        assert len(seen) == 3 + (q > 2) + (ctx.e > 1)
        for image in seen:
            assert (bulk.batched_rref(ctx, image)[0] == image).all(), (q, n, k)


def test_bitset_all_pairs_matches_oracle_bfs():
    graphs = []
    for q, n, k, t in [(2, 4, 2, None), (2, 5, 3, None), (3, 4, 2, 1), (2, 5, 2, 1), (5, 3, 2, 2)]:
        idx = enumerate_subspaces(field_of_order(q), n, k)
        graphs.append(build_gamma(idx) if t is None else build_delta(idx, t))
    # a sparse vertex subset, so some pairs are unreachable
    idx = enumerate_subspaces(F2, 5, 2)
    graphs.append(GrassmannGraph(idx, 1, np.arange(0, len(idx), 13, dtype=np.int64)))
    for g in graphs:
        adj = adjacency_pairwise(g).tolist()
        d = all_pairs_distances(g)
        for src in range(g.num_vertices):
            expect = [-1 if x == inf else x for x in oracle_bfs(adj, src)]
            assert d[src].tolist() == expect, (g.index.n, g.index.k, g.t, src)
    assert (d == -1).any()


def test_gamma_distance_distribution():
    """A source of the full graph has q^(i^2) [k i]_q [n-k i]_q vertices
    at distance i (the Grassmann graph is distance-regular).  The bitset
    BFS from a few sources at once gives the oracle's rows, and
    gamma_diameter accepts the graph."""
    for q, n, k in [(2, 6, 3), (3, 5, 2), (4, 4, 2), (2, 6, 4), (9, 4, 2)]:
        idx = enumerate_subspaces(field_of_order(q), n, k)
        g = build_gamma(idx)
        sources = np.array([0, g.num_vertices // 2, g.num_vertices - 1])
        rows = grassmann._bfs(grassmann._Buckets(idx.incidence()), sources)
        for col, src in enumerate(sources):
            oracle = bfs_distances(g, int(src))
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
    which the one-source check must catch."""
    original = SubspaceIndex.incidence

    def corrupted(index):
        inc = original(index).copy()
        inc[0, 0] = inc[0, 1]
        return inc

    idx = enumerate_subspaces(F2, 4, 2)
    assert gamma_diameter(idx) == 2
    monkeypatch.setattr(SubspaceIndex, "incidence", corrupted)
    with pytest.raises(InternalInvariantError):
        gamma_diameter(idx)


def test_bfs_source_forms():
    idx = enumerate_subspaces(F2, 4, 2)
    g = build_gamma(idx)
    s = g.subspace_at(3)
    assert bfs_distances(g, 3).tolist() == bfs_distances(g, s).tolist()
    assert bfs_distances(g, LinearCode(s)).tolist() == bfs_distances(g, 3).tolist()
    with pytest.raises(VertexAbsentError):
        bfs_distances(g, 99)
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
    idx = enumerate_subspaces(F2, 4, 2)
    g = build_gamma(idx)
    with pytest.raises(AllPairsTooLargeError):
        all_pairs_distances(g, max_pairs=10)


def test_gamma_diameter_formula():
    for q, n, k in [(2, 4, 2), (3, 4, 2), (2, 5, 2), (5, 3, 2), (4, 4, 2)]:
        ctx = field_of_order(q)
        g = build_gamma(enumerate_subspaces(ctx, n, k))
        s = diameter_and_connectivity(g)
        assert s.connected
        assert s.diameter == min(k, n - k)


def test_gamma_metric_identity():
    """BFS distance in the full graph equals k - dim(x ∩ y), all pairs."""
    for ctx, n, k in [(F2, 4, 2), (F3, 4, 2), (F2, 5, 2)]:
        idx = enumerate_subspaces(ctx, n, k)
        g = build_gamma(idx)
        bfs = all_pairs_distances(g)
        metric = metric_distance_matrix(g)
        assert (bfs == metric).all()


def test_metric_matrix_matches_rank_route():
    """The point-count metric matrix equals scalar stacked-basis ranks."""
    for ctx, n, k in [(F3, 4, 2), (F2, 5, 3)]:
        idx = enumerate_subspaces(ctx, n, k)
        g = build_gamma(idx)
        fast = metric_distance_matrix(g)
        subs = [g.subspace_at(i) for i in range(g.num_vertices)]
        for i in range(0, g.num_vertices, 9):
            for j in range(0, g.num_vertices, 11):
                assert fast[i, j] == grassmann_distance(subs[i], subs[j])


def test_metric_matrix_deep_case():
    """min(k, n-k) = 3 over GF(2): shared-point counts need two bit planes."""
    idx = enumerate_subspaces(F2, 6, 3)
    g = build_gamma(idx)
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
    g = build_gamma(idx) if t is None else build_delta(idx, t)
    assert g.num_vertices > 1
    assert (metric_distance_matrix(g) == metric_ranks_pairwise(g)).all()


def test_metric_three_bit_planes():
    """Over GF(3) two distinct 3-spaces share up to [2]_3 = 4 points, so the
    counts take three bit planes.  Δ(3,6,3,3) is empty, so a strided vertex
    subset of Γ(3,6,3) stands in."""
    idx = enumerate_subspaces(F3, 6, 3)
    g = GrassmannGraph(idx, None, np.arange(0, len(idx), 97, dtype=np.int64))
    m = metric_distance_matrix(g)
    assert (m == metric_ranks_pairwise(g)).all()
    assert set(np.unique(m).tolist()) == {0, 1, 2, 3}


def test_metric_reads_no_edges(monkeypatch):
    """The metric uses neither the graph's adjacency or buckets nor
    stacked ranks, so the isometry check never compares BFS with the
    graph's own edges.  Δ(2,6,3,1), with min(k, n-k) = 3 on the spaces
    themselves, is pinned to the rank oracle here on every pair."""
    graphs = [
        build_gamma(enumerate_subspaces(F3, 4, 2)),
        build_delta(enumerate_subspaces(F2, 6, 3), 1),
    ]
    expected = [metric_ranks_pairwise(g) for g in graphs]

    def refuse(*args, **kwargs):
        raise AssertionError("the metric must not call this")

    monkeypatch.setattr(GrassmannGraph, "adjacency", refuse)
    monkeypatch.setattr(GrassmannGraph, "buckets", refuse)
    monkeypatch.setattr(bulk, "batched_rank", refuse)
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
        isometry_check(build_gamma(idx))


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
    assert idx.incidence().shape == idx.point_keys().shape == (1, 0)
    assert idx.orbit_labels().tolist() == [0]
    assert gamma_diameter(idx) == 0
    graphs = [build_gamma(idx)] + [build_delta(idx, t) for t in range(1, k + 1)]
    for g in graphs:
        assert diameter_and_connectivity(g) == GraphSummary(True, 0, 1)
        assert metric_distance_matrix(g).tolist() == [[0]]
    for g in graphs[1:]:
        assert isometry_check(g).isometric


def test_graph_rejects_unordered_vertex_ids():
    """Graph positions follow index order, so the vertex ids must be
    strictly increasing index positions."""
    idx = enumerate_subspaces(F2, 4, 2)
    for ids in ([2, 0, 1], [0, 1, 1], [3, len(idx)], [-1, 4]):
        with pytest.raises(BadIndicesError):
            GrassmannGraph(idx, 1, np.array(ids, dtype=np.int64))


def test_disconnected_vertex_subset():
    """A hand-picked two-vertex induced graph with no edge: infinite
    distances, two components, and a non-isometry witness."""
    idx = enumerate_subspaces(F2, 4, 2)
    g = build_gamma(idx)
    # find a non-adjacent pair
    adj = g.adjacency()
    i, j = next(
        (a, b)
        for a in range(len(idx))
        for b in range(a + 1, len(idx))
        if not adj[a, b]
    )
    sub = GrassmannGraph(idx, 1, np.array(sorted((i, j)), dtype=np.int64))
    dist = bfs_distances(sub, 0)
    assert dist[0] == 0 and dist[1] == inf
    s = diameter_and_connectivity(sub)
    assert not s.connected
    assert s.diameter == inf
    assert s.component_count == 2
    rep = isometry_check(sub)
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
            mi = position_of(delta, apply_monomial(m, LinearCode(delta.subspace_at(i))))
            mj = position_of(delta, apply_monomial(m, LinearCode(delta.subspace_at(j))))
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


def test_orbit_labels_are_lazy():
    """Enumeration builds no orbit labels; they are built once, on first use."""
    idx = enumerate_subspaces(F3, 4, 2)
    assert idx._orbits is None
    labels = idx.orbit_labels()
    assert idx.orbit_labels() is labels


def test_orbit_labels_reject_mixed_strengths(monkeypatch):
    """Every symmetry preserves strength, so an orbit holding two strengths
    means a broken index, which the per-orbit route must refuse.  The last
    subspace, a coordinate plane, shares its orbit with position 0."""
    original = SubspaceIndex.strength_all

    def corrupted(index):
        strengths = original(index).copy()
        strengths[-1] += 1
        return strengths

    assert diameter_and_connectivity(build_delta(enumerate_subspaces(F3, 4, 2), 1)).connected
    monkeypatch.setattr(SubspaceIndex, "strength_all", corrupted)
    idx = enumerate_subspaces(F3, 4, 2)
    with pytest.raises(InternalInvariantError):
        diameter_and_connectivity(build_delta(idx, 1))


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
    Γ(q,4,2) as all-sources BFS does: sparse hand-picked subsets (every
    vertex its own representative) and unions of symmetry orbits."""
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
        g = GrassmannGraph(idx, 1, ids.astype(np.int64))
        summary = diameter_and_connectivity(g)
        assert summary == summary_all_pairs(g), (q, ids.tolist())
        counts.append(summary.component_count)
    assert max(counts) > 2  # disconnected subsets were drawn
