"""Shared helpers: independent pure-python oracles the fast paths are tested against."""

import itertools
from math import inf

import numpy as np

from grasscodes import construct
from grasscodes.bulk import batched_rref
from grasscodes.codes import LinearCode, MonomialMap, apply_monomial, strength
from grasscodes.errors import GrassCodesError, NotSubspaceError
from grasscodes.grassmann import (
    GraphSummary,
    IsometryReport,
    all_pairs_distances,
    metric_distance_matrix,
)
from grasscodes.linalg import MatrixGF, Subspace, intersect


class VertexAbsentError(GrassCodesError):
    """A subspace or position looked up is not a vertex of the graph."""


def vadd(ctx, u, v):
    return tuple(ctx.add(a, b) for a, b in zip(u, v))


def dot(ctx, u, v):
    """Standard bilinear form; the oracle for kernel orthogonality."""
    acc = 0
    for a, b in zip(u, v):
        acc = ctx.add(acc, ctx.mul(a, b))
    return acc


def iter_rref_bases(ctx, n, k):
    """Every canonical RREF basis of a k-subspace of F_q^n, by pivot pattern.

    Independent oracle used to pin enumeration counts and memberships;
    kept deliberately simple (nested loops, no numpy).
    """
    q = ctx.q
    if k == 0:
        yield ()
        return
    for pivots in itertools.combinations(range(n), k):
        pivot_set = set(pivots)
        free = [
            (i, j)
            for i in range(k)
            for j in range(n)
            if j > pivots[i] and j not in pivot_set
        ]
        for assignment in itertools.product(range(q), repeat=len(free)):
            rows = [[0] * n for _ in range(k)]
            for i, p in enumerate(pivots):
                rows[i][p] = 1
            for (i, j), v in zip(free, assignment):
                rows[i][j] = v
            yield tuple(tuple(r) for r in rows)


def all_subspaces(ctx, n, k):
    return [
        Subspace(ctx, n, MatrixGF(ctx, rows, ncols=n))
        for rows in iter_rref_bases(ctx, n, k)
    ]


def all_codes(ctx, n, k):
    return [LinearCode(s) for s in all_subspaces(ctx, n, k)]


def codewords(c):
    """Every codeword of the LinearCode c, by enumerating its span."""
    return c.space.vectors()


def batched_rank(ctx, mats):
    """Rank of every matrix in a (B, r, c) uint8 batch, by batched RREF."""
    return batched_rref(ctx, mats)[1]


def strengths_by_column_rank(ctx, bases, n, k):
    """Strength of every (V, k, n) basis from its shortest dependent column
    subset: the dual distance is the size s of the smallest set of columns
    of rank below s, and the strength is min(s - 1, k), or k when no s <= k
    is found.  One batched rank per column subset, over the bases whose
    dual distance is still unknown."""
    dual_dist = np.zeros(bases.shape[0], dtype=np.int16)  # 0 = no dependency yet
    for s in range(1, k + 1):
        for cols in itertools.combinations(range(n), s):
            ids = np.flatnonzero(dual_dist == 0)
            if ids.size == 0:
                break
            dep = batched_rank(ctx, bases[ids][:, :, list(cols)]) < s
            dual_dist[ids[dep]] = s
    return np.where(dual_dist == 0, k, np.minimum(dual_dist - 1, k)).astype(np.int16)


def adjacency_pairwise(graph, chunk=1 << 15):
    """Adjacency by direct rank tests on all stacked pairs: x and y are
    adjacent iff their stacked bases have rank k + 1."""
    v = graph.num_vertices
    k = graph.index.k
    bases = graph.index.bases[graph.vertex_ids]
    adj = np.zeros((v, v), dtype=bool)
    for i in range(v):
        js = np.arange(i + 1, v)
        for s in range(0, js.size, chunk):
            jblock = js[s : s + chunk]
            stacked = np.concatenate(
                (np.broadcast_to(bases[i], (jblock.size, k, graph.index.n)), bases[jblock]),
                axis=1,
            )
            ranks = batched_rank(graph.index.ctx, stacked)
            hit = jblock[ranks == k + 1]
            adj[i, hit] = True
            adj[hit, i] = True
    return adj


def metric_ranks_pairwise(graph):
    """k - dim(x ∩ y) for every vertex pair, from the rank of the stacked
    bases, computed in blocks of whole rows of about 2^16 pairs."""
    v = graph.num_vertices
    k = graph.index.k
    bases = graph.index.bases[graph.vertex_ids]
    ctx = graph.index.ctx
    dist = np.zeros((v, v), dtype=np.int16)
    chunk = 1 << 16
    per_row = np.arange(v - 1, -1, -1)
    ends = np.cumsum(per_row)  # number of pairs (i, j > i) in rows 0..i
    start = 0
    while start < v:
        before = ends[start] - per_row[start]
        stop = max(start + 1, int(np.searchsorted(ends, before + chunk, "right")))
        i, j = np.nonzero(np.arange(start, stop)[:, None] < np.arange(v))
        i += start
        ranks = batched_rank(ctx, np.concatenate((bases[i], bases[j]), axis=1))
        dist[i, j] = ranks - k
        dist[j, i] = ranks - k
        start = stop
    return dist


def index_of(index, s):
    """Position of a Subspace/LinearCode in a SubspaceIndex, by comparing
    its RREF entries with every row of the table."""
    if isinstance(s, LinearCode):
        s = s.space
    if (s.dim, s.ambient_dim) != (index.k, index.n):
        raise VertexAbsentError("subspace not found in index")
    key = np.array(s.basis.rows, dtype=np.uint8).reshape(1, -1)
    hits = np.flatnonzero((index.bases.reshape(len(index), -1) == key).all(axis=1))
    if hits.size == 0:
        raise VertexAbsentError("subspace not found in index")
    return int(hits[0])


def position_of(graph, s):
    """Position of a Subspace/LinearCode among a graph's vertices."""
    gid = index_of(graph.index, s)
    pos = np.searchsorted(graph.vertex_ids, gid)
    if pos >= graph.num_vertices or graph.vertex_ids[pos] != gid:
        raise VertexAbsentError("subspace is not a vertex of this graph")
    return int(pos)


def verify_step_certificate(x, y, t, cert):
    """Re-derive every recorded check of a step from scratch (independent
    routes): z is spanned by the certificate, adjacent to x and in the class."""
    z = cert.z_code
    expected_span = Subspace.from_vectors(
        x.ctx, x.n, list(cert.hyperplane_used.basis.rows) + [cert.coset_rep]
    )
    return (
        z.space == expected_span
        and intersect(x.space, z.space).dim == x.k - 1
        and intersect(z.space, y.space).dim == cert.dim_z_meet_y
        and strength(z) >= t
        and x.space.contains(cert.hyperplane_used)
        and y.space.contains_vector(cert.coset_rep)
    )


def opposite_oracle(c):
    """Oracle for `construct.opposite_code`: (λ, witness), with the witness
    σ⁻¹ ∘ μ_λ ∘ σ composed by hand from perm and scalar tuples.

    σ moves c's RREF pivots to the front in order, then the free columns
    in order, making the generator [I_k | M].  μ_λ swaps the column blocks
    [0, m) and [k, k+m), m = min(k, n-k), scaling the source block [k, k+m)
    by λ.  λ is the first nonzero scalar, ascending, whose image meets c
    in dimension max(2k - n, 0), measured by `intersect`; None if none."""
    ctx, n, k = c.ctx, c.n, c.k
    pivots = [next(j for j, v in enumerate(r) if v) for r in c.generator.rows]
    order = pivots + [j for j in range(n) if j not in pivots]  # σ⁻¹: i -> order[i]
    sigma = [order.index(j) for j in range(n)]
    m = min(k, n - k)
    mu = [j + k if j < m else j - k if k <= j < k + m else j for j in range(n)]
    perm = tuple(order[mu[sigma[j]]] for j in range(n))
    for lam in ctx.all_nonzero():
        scalars = tuple(lam if k <= sigma[j] < k + m else 1 for j in range(n))
        witness = MonomialMap(ctx, perm, scalars)
        image = apply_monomial(witness, c)
        if intersect(c.space, image.space).dim == max(2 * k - n, 0):
            return lam, witness
    return None


def complement_basis_greedy(inner, outer):
    """Oracle for `linalg.complement_basis`: scan outer's RREF basis rows
    in order and keep each one that grows the span of inner and the rows
    kept so far, one rank computation per row."""
    if not outer.contains(inner):
        raise NotSubspaceError("inner is not contained in outer")
    acc = list(inner.basis.rows)
    out = []
    for row in outer.basis.rows:
        if Subspace.from_vectors(outer.ctx, outer.ambient_dim, acc + [row]).dim > len(acc):
            acc.append(row)
            out.append(row)
    return out


def count_step_codes(x, y, t):
    """Number of distinct strength-t codes over step_toward's whole scan
    domain from x toward y.  Each candidate is tested by
    `construct._span_in_class`, so every color counts in `scan_stats`."""
    xy = intersect(x.space, y.space)
    return len({
        span
        for _, _, span in construct._step_candidates(x, y, xy)
        if construct._span_in_class(span, t)
    })


def bfs_distances(graph, source):
    """Single-source BFS distances (float array, inf for unreachable).

    source may be a graph position (int) or a Subspace/LinearCode.  Each
    level marks the buckets of the frontier and takes their unreached
    members as the next frontier.
    """
    if isinstance(source, (int, np.integer)):
        src = int(source)
        if not 0 <= src < graph.num_vertices:
            raise VertexAbsentError(f"position {src} out of range")
    else:
        src = position_of(graph, source)
    inc = graph.buckets().inc
    dist = np.full(graph.num_vertices, inf)
    dist[src] = 0
    num_buckets = int(inc.max()) + 1 if inc.size else 0
    frontier = np.array([src])
    level = 0
    while frontier.size:
        hit = np.zeros(num_buckets, dtype=bool)
        hit[inc[frontier]] = True
        frontier = np.flatnonzero(hit[inc].any(axis=1) & np.isinf(dist))
        level += 1
        dist[frontier] = level
    return dist


def random_monomial(ctx, n, rng):
    """A random monomial map on F_q^n drawn from a `random.Random`."""
    perm = list(range(n))
    rng.shuffle(perm)
    scalars = tuple(rng.randrange(1, ctx.q) for _ in range(n))
    return MonomialMap(ctx, tuple(perm), scalars)


def summary_all_pairs(graph):
    """Connectivity, diameter and component count read off all-pairs BFS:
    a vertex's first reachable position names its component."""
    if graph.num_vertices == 0:
        return GraphSummary(True, None, 0)
    dist = all_pairs_distances(graph)
    comp = np.unique((dist >= 0).argmax(axis=1)).size
    if comp > 1:
        return GraphSummary(False, inf, comp)
    return GraphSummary(True, int(dist.max()), 1)


def isometry_all_pairs(graph, cap=100):
    """The isometry verdict and its first `cap` witnesses, row-major over
    the pairs (i, j > i), from the all-pairs BFS and metric matrices."""
    v = graph.num_vertices
    if v <= 1:
        return IsometryReport(True, [], 0)
    d_sub = all_pairs_distances(graph)
    d_metric = metric_distance_matrix(graph)
    i, j = np.nonzero(np.triu(d_sub != d_metric, 1))
    witnesses = [
        (int(a), int(b), inf if d_sub[a, b] < 0 else int(d_sub[a, b]), int(d_metric[a, b]))
        for a, b in zip(i[:cap], j[:cap])
    ]
    return IsometryReport(i.size == 0, witnesses, v * (v - 1) // 2)
