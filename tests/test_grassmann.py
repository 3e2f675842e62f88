from collections import deque
from math import inf

import numpy as np
import pytest

from conftest import (
    VertexAbsentError,
    adjacency_pairwise,
    bfs_distances,
    index_of,
    iter_rref_bases,
    metric_ranks_pairwise,
    position_of,
    random_monomial,
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
from grasscodes.gf import field_new, field_of_order
from grasscodes.grassmann import (
    GrassmannGraph,
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
    for ctx, n in ((F2, 4), (F3, 4), (field_of_order(4), 3)):
        for k in range(1, n + 1):
            idx = enumerate_subspaces(ctx, n, k)
            bulk_strengths = idx.strength_all()
            for i in range(len(idx)):
                assert int(bulk_strengths[i]) == strength(LinearCode(idx.subspace_at(i)))


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
        inc = gamma.incidence()
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
        rows = grassmann._bfs(idx.incidence(), sources)
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
    """The metric uses neither the graph's adjacency or incidence nor
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
    monkeypatch.setattr(GrassmannGraph, "incidence", refuse)
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
