"""Exhaustive enumeration of k-subspaces and the graphs they carry.

The full graph has every k-subspace of F_q^n as a vertex, with edges
between subspaces meeting in dimension k-1; the strength-t graph is the
subgraph induced on codes of strength >= t.  Everything here is the
brute-force oracle side of the package: vertex sets are enumerated
completely (pivot-pattern generation, canonically sorted), edges are
held as a bucket incidence (each vertex lists the cliques of the graph
it lies in), and distances come from genuine breadth-first search over
that incidence (bit-parallel from any set of sources at once).

Graph distance in the full graph coincides with k - dim(x ∩ y).  It is
distance-transitive, so BFS from one source, checked against the closed
form, fixes its diameter min(k, n-k); the isometry check compares
all-pairs BFS distance in the induced subgraph with k - dim(x ∩ y).
That metric never reads edges: it counts the points two subspaces share.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import inf

import numpy as np

from . import bulk
from .errors import (
    AllPairsTooLargeError,
    BadTError,
    DimensionMismatchError,
    EnumerationTooLargeError,
    InternalInvariantError,
)
from .gf import FieldCtx
from .linalg import MatrixGF, Subspace, projective_reps, q_int, rref, subspace_count

ENUM_CAP = 1 << 21
ALL_PAIRS_CAP = 1 << 25  # max number of vertex pairs in all-pairs verification
_WITNESS_CAP = 100  # the report schema's maxItems for witnesses


# -- enumeration ----------------------------------------------------------------

class SubspaceIndex:
    """All k-subspaces of F_q^n, canonically ordered.

    bases[i] is the RREF basis of subspace i as a (k, n) uint8 block;
    the table is sorted lexicographically by row-major entries, so the
    ordering is reproducible across runs and platforms.
    """

    def __init__(self, ctx: FieldCtx, n: int, k: int, bases: np.ndarray):
        self.ctx = ctx
        self.n = n
        self.k = k
        self.bases = bases
        self._strength_all: np.ndarray | None = None
        self._point_keys: np.ndarray | None = None
        self._incidence: np.ndarray | None = None

    def __len__(self) -> int:
        return self.bases.shape[0]

    def subspace_at(self, i: int) -> Subspace:
        rows = tuple(map(tuple, self.bases[i].tolist()))
        return Subspace(self.ctx, self.n, MatrixGF._trusted(self.ctx, rows, self.n))

    def strength_all(self) -> np.ndarray:
        """Strength of every subspace, via shortest dependent column subsets."""
        if self._strength_all is None:
            self._strength_all = _bulk_strengths(self.ctx, self.bases, self.n, self.k)
        return self._strength_all

    def point_keys(self) -> np.ndarray:
        """V x [kk]_q base-q keys (< q^n <= 2^30 under ENUM_CAP) of the points of
        every subspace, or of its annihilator (not RREF, so each point is
        scaled to a leading 1) when 2k > n: kk = min(k, n-k)."""
        if self._point_keys is None:
            ctx, n, kk = self.ctx, self.n, min(self.k, self.n - self.k)
            bases = _annihilators(ctx, self.bases, n, self.k) if kk < self.k else self.bases
            add, sub, mul, inv, neg = ctx.np_tables()
            pts = np.zeros((len(self), q_int(kk, ctx.q), n), dtype=np.uint8)
            for i, lam in enumerate(zip(*projective_reps(ctx, kk))):
                pts = add[pts, mul[np.array(lam, dtype=np.uint8)[None, :, None], bases[:, None, i]]]
            lead = np.take_along_axis(pts, (pts != 0).argmax(axis=2)[..., None], axis=2)
            self._point_keys = mul[pts, inv[lead]].astype(np.int64) @ ctx.q ** np.arange(n)
        return self._point_keys

    def incidence(self) -> np.ndarray:
        """V x h bucket ids of every subspace, see GrassmannGraph.incidence."""
        if self._incidence is None:
            self._incidence = _bucket_incidence(self.ctx, self.bases, self.n, self.k)
        return self._incidence


def _bulk_strengths(ctx: FieldCtx, bases: np.ndarray, n: int, k: int) -> np.ndarray:
    v = bases.shape[0]
    dual_dist = np.zeros(v, dtype=np.int16)  # 0 = no dependency found yet
    alive = np.ones(v, dtype=bool)
    for s in range(1, min(k + 1, n) + 1):
        if not alive.any():
            break
        for cols in itertools.combinations(range(n), s):
            ids = np.nonzero(alive)[0]
            if ids.size == 0:
                break
            sub = bases[ids][:, :, list(cols)]
            ranks = bulk.batched_rank(ctx, sub)
            dep = ranks < s
            if dep.any():
                hit = ids[dep]
                dual_dist[hit] = s
                alive[hit] = False
    out = np.where(dual_dist == 0, k, np.minimum(dual_dist - 1, k)).astype(np.int16)
    return out


def enumerate_subspaces(
    ctx: FieldCtx, n: int, k: int, max_count: int = ENUM_CAP
) -> SubspaceIndex:
    """Complete duplicate-free enumeration via RREF pivot patterns.

    Bases are stored as uint8, so q > 256 raises FieldTooLargeError (from
    the numpy tables) before anything is built."""
    ctx.np_tables()
    if not 0 <= k <= n:
        raise DimensionMismatchError(f"need 0 <= k <= n, got k={k}, n={n}")
    total = subspace_count(n, k, ctx.q)
    if total > max_count:
        raise EnumerationTooLargeError(
            f"{total} subspaces exceed the cap {max_count}"
        )
    q = ctx.q
    out = np.zeros((total, k, n), dtype=np.uint8)
    pos = 0
    for pivots in itertools.combinations(range(n), k):
        pivot_set = set(pivots)
        free = [
            (i, j)
            for i in range(k)
            for j in range(n)
            if j > pivots[i] and j not in pivot_set
        ]
        cnt = q ** len(free)
        block = np.zeros((cnt, k, n), dtype=np.uint8)
        for i, p in enumerate(pivots):
            block[:, i, p] = 1
        if free:
            encs = np.arange(cnt, dtype=np.int64)
            for m, (i, j) in enumerate(free):
                block[:, i, j] = (encs // q**m) % q
        out[pos : pos + cnt] = block
        pos += cnt
    if pos != total:
        raise InternalInvariantError(
            f"enumerated {pos} subspaces, expected {total}"
        )
    flat = out.reshape(total, k * n) if total else out.reshape(0, k * n)
    if k * n:
        order = np.lexsort(flat.T[::-1])
        out = out[order]
    return SubspaceIndex(ctx, n, k, out)


# -- metric ------------------------------------------------------------------------

def grassmann_distance(x: Subspace, y: Subspace) -> int:
    """k - dim(x ∩ y) = rank of the stacked bases minus k."""
    if x.dim != y.dim:
        raise DimensionMismatchError("subspaces of different dimension")
    x._check_ambient(y)
    _, rank = rref(x.basis.stack(y.basis))
    return rank - x.dim


# -- graphs -------------------------------------------------------------------------

class GrassmannGraph:
    """Full graph or strength-t induced subgraph over a SubspaceIndex.

    vertex_ids maps graph positions to index positions.  Edges are held as
    the bucket incidence (see `incidence`), which drives every BFS; the
    metric slices the index's point keys instead and never reads edges.
    """

    def __init__(self, index: SubspaceIndex, t: int | None, vertex_ids: np.ndarray):
        self.index = index
        self.t = t
        self.vertex_ids = vertex_ids
        self._incidence: np.ndarray | None = None
        self._adjacency: np.ndarray | None = None
        self._all_pairs: np.ndarray | None = None

    @property
    def mode(self) -> str:
        return "full" if self.t is None else "induced"

    @property
    def num_vertices(self) -> int:
        return int(self.vertex_ids.shape[0])

    def subspace_at(self, i: int) -> Subspace:
        return self.index.subspace_at(int(self.vertex_ids[i]))

    def incidence(self) -> np.ndarray:
        """V x h array of bucket ids, numbered 0.. in canonical key order.

        Each bucket is a clique and every edge lies in exactly one bucket:
        for k <= n-k the buckets of x are its [k]_q hyperplanes, otherwise
        the [n-k]_q (k+1)-spaces containing x, so h = min([k]_q, [n-k]_q).
        The rows are the index's incidence at vertex_ids, ids recompacted.
        """
        if self._incidence is None:
            rows = self.index.incidence()[self.vertex_ids]
            self._incidence = np.unique(rows, return_inverse=True)[1].reshape(rows.shape)
        return self._incidence

    def adjacency(self) -> np.ndarray:
        """Dense boolean adjacency, one spread of the identity bitsets; kept
        for the tests and the bench tracer, no verification route calls it."""
        if self._adjacency is None:
            v = self.num_vertices
            bits = _source_bits(v, np.arange(v))
            _spread(self.incidence(), _source_bits(v, np.arange(v)), bits[None])
            self._adjacency = _unpack(bits, v)
            np.fill_diagonal(self._adjacency, False)
        return self._adjacency


def build_gamma(index: SubspaceIndex) -> GrassmannGraph:
    return GrassmannGraph(index, None, np.arange(len(index), dtype=np.int64))


def build_delta(index: SubspaceIndex, t: int) -> GrassmannGraph:
    """Subgraph induced on the strength-t class."""
    if not 1 <= t <= index.k:
        raise BadTError(f"t must be in [1, k={index.k}], got {t}")
    ids = np.nonzero(index.strength_all() >= t)[0].astype(np.int64)
    return GrassmannGraph(index, t, ids)


def _annihilators(ctx: FieldCtx, bases: np.ndarray, n: int, k: int) -> np.ndarray:
    """(V, n-k, n) bases of the annihilators of the RREF bases (V, k, n).

    Free column f of an RREF basis gives the kernel vector e_f minus
    sum_i bases[i, f] e_(pivot i).
    """
    neg = ctx.np_tables()[4]
    v = bases.shape[0]
    vi = np.arange(v)[:, None, None]
    pivots = (bases != 0).argmax(axis=2)
    is_pivot = np.zeros((v, n), dtype=bool)
    is_pivot[vi[:, :, 0], pivots] = True
    free = np.argsort(is_pivot, axis=1, kind="stable")[:, : n - k]
    out = np.zeros((v, n - k, n), dtype=np.uint8)
    fi = np.arange(n - k)[None, None, :]
    out[vi[:, 0], fi[0], free] = 1
    out[vi, fi, pivots[:, :, None]] = neg[bases[vi, np.arange(k)[None, :, None], free[:, None, :]]]
    return out


def _bucket_incidence(ctx: FieldCtx, bases: np.ndarray, n: int, k: int) -> np.ndarray:
    """Bucket ids of every vertex, see GrassmannGraph.incidence.

    The (k+1)-spaces containing x are the annihilators of the hyperplanes
    of x's annihilator, so both sides reduce to hyperplanes of a basis
    block B.  N_lam B, with N_lam the annihilator of a point lam of F_q^k,
    spans a hyperplane of x; one batched RREF canonicalizes them all.
    A bucket's key reads its RREF entries as big-endian base-q digits, so
    ids follow the row-major order of the RREFs.  After the flip k <= n-k,
    so (k-1) n < 2 k (n-k) and the keys stay below q^((k-1) n) < V^2, which
    is at most 2^42 under ENUM_CAP.
    """
    if 2 * k > n:
        bases, k = _annihilators(ctx, bases, n, k), n - k
    v = bases.shape[0]
    lams = list(projective_reps(ctx, k))
    if not lams:
        return np.zeros((v, 0), dtype=np.int64)
    add, sub, mul, inv, neg = ctx.np_tables()
    kernels = _annihilators(ctx, np.array(lams, dtype=np.uint8)[:, None, :], k, 1)
    spans = np.zeros((v, len(lams), k - 1, n), dtype=np.uint8)
    for i in range(k):
        spans = add[spans, mul[kernels[None, :, :, i, None], bases[:, None, None, i, :]]]
    canon, _ = bulk.batched_rref(ctx, spans.reshape(v * len(lams), k - 1, n))
    digits = canon.reshape(v * len(lams), (k - 1) * n).astype(np.int64)
    # k-1 = 0 gives every key 0: the one bucket is the zero space
    keys = digits @ ctx.q ** np.arange((k - 1) * n)[::-1]
    return np.unique(keys, return_inverse=True)[1].reshape(v, len(lams)).astype(np.int64)


# -- distances ----------------------------------------------------------------------
#
# Rows of V x ceil(S/64) uint64 arrays are bitsets over S sources.  `_spread`
# ORs the rows of each bucket's members together and adds the result back
# into every member, O(V * h * S/64) word operations: BFS ORs it into the
# sets reached, the metric counts shared buckets in binary bit planes.

def _source_bits(v: int, sources: np.ndarray) -> np.ndarray:
    """V x ceil(S/64) bitsets in which row sources[s] holds bit s."""
    s = np.arange(sources.size)
    bits = np.zeros((v, (sources.size + 63) // 64), dtype=np.uint64)
    bits.view(np.uint8)[sources, s >> 3] = (1 << (s & 7)).astype(np.uint8)
    return bits


def _unpack(bits: np.ndarray, count: int) -> np.ndarray:
    """Boolean matrix of the first `count` bits of each bitset row."""
    return np.unpackbits(bits.view(np.uint8), axis=1, count=count, bitorder="little").view(bool)


def _spread(inc: np.ndarray, reach: np.ndarray, planes: np.ndarray) -> None:
    """Add reach[w] to row u of the L bit planes once per bucket u shares
    with w (inc: V x h bucket ids 0..).  The top plane is ORed, so a single
    plane is the OR spread of BFS, and counts below 2^L are exact."""
    v, h = inc.shape
    # members of every bucket in id order, and where each bucket begins
    order = np.argsort(inc.ravel(), kind="stable")
    members = order // h
    starts = np.flatnonzero(np.diff(inc.ravel()[order], prepend=-1))
    merged = np.empty((starts.size, reach.shape[1]), dtype=reach.dtype)
    # chunks of whole buckets, about V members each, bound the gathered block
    cuts = np.unique(np.r_[np.searchsorted(starts, np.arange(0, members.size, max(v, 1))), starts.size])
    for b0, b1 in zip(cuts[:-1], cuts[1:]):
        lo = starts[b0]
        hi = starts[b1] if b1 < starts.size else members.size
        merged[b0:b1] = np.bitwise_or.reduceat(reach[members[lo:hi]], starts[b0:b1] - lo, axis=0)
    for j in range(h):
        carry = merged[inc[:, j]]
        for plane in planes[:-1]:
            plane ^= carry
            carry &= ~plane
        planes[-1] |= carry


def _check_pairs(v: int, max_pairs: int) -> None:
    if v * (v - 1) // 2 > max_pairs:
        raise AllPairsTooLargeError(f"{v} vertices give {v * (v - 1) // 2} pairs > cap {max_pairs}")


def _bfs(inc: np.ndarray, sources: np.ndarray) -> np.ndarray:
    """V x S BFS distances over the incidence, column s from sources[s];
    -1 marks unreachable.  One spread of the reach bitsets per level."""
    v = inc.shape[0]
    # d(u, s) is the number of levels at which u is not yet reached from s
    dist = np.zeros((v, sources.size), dtype=np.int16)
    reach = _source_bits(v, sources)
    while True:
        missing = _unpack(~reach, sources.size)
        if not missing.any():
            break
        dist += missing
        new = reach.copy()
        _spread(inc, reach, new[None])
        if (new == reach).all():
            dist[missing] = -1
            break
        reach = new
    return dist


def all_pairs_distances(graph: GrassmannGraph, max_pairs: int = ALL_PAIRS_CAP) -> np.ndarray:
    """Exact BFS distance between every vertex pair; -1 marks unreachable.

    Breadth-first search from all sources at once; the result is cached
    on the graph.
    """
    v = graph.num_vertices
    _check_pairs(v, max_pairs)
    if graph._all_pairs is None:
        graph._all_pairs = _bfs(graph.incidence(), np.arange(v))
    return graph._all_pairs


def gamma_diameter(index: SubspaceIndex) -> int:
    """The full graph's diameter min(k, n-k), checked by one BFS.

    The graph is distance-transitive: every vertex has q^(i^2) [k i]_q
    [n-k i]_q vertices at distance i.  BFS from vertex 0 must count exactly
    these (they sum to V, so an unreached vertex shows as a mismatch);
    anything else means the engine itself is broken.
    """
    q, n, k = index.ctx.q, index.n, index.k
    dist = _bfs(index.incidence(), np.zeros(1, dtype=np.int64))[:, 0]
    counts = np.bincount(dist[dist >= 0]).tolist()
    expect = [
        q ** (i * i) * subspace_count(k, i, q) * subspace_count(n - k, i, q)
        for i in range(min(k, n - k) + 1)
    ]
    if counts != expect:
        raise InternalInvariantError(
            f"full-graph BFS levels {counts} != q^(i^2) [k i]_q [n-k i]_q = {expect}"
        )
    return len(expect) - 1


def metric_distance_matrix(graph: GrassmannGraph, max_pairs: int = ALL_PAIRS_CAP) -> np.ndarray:
    """The matrix of k - dim(x ∩ y) over the graph's vertex set.

    x and y share s points with (q-1)s + 1 = q^dim(x ∩ y), counted in bit
    planes wide enough for [kk-1]_q, the most two distinct kk-spaces share
    (see SubspaceIndex.point_keys; dim(x⊥ ∩ y⊥) = n - 2k + dim(x ∩ y)).
    Off the diagonal s is some [e]_q, and [d]_q > 2 [d-1]_q, so s >= [d]_q
    exactly when s has a bit at or above the top bit of [d]_q.
    """
    index, v = graph.index, graph.num_vertices
    q, kk = index.ctx.q, min(index.k, index.n - index.k)
    _check_pairs(v, max_pairs)
    keys = index.point_keys()[graph.vertex_ids]
    pts = np.unique(keys, return_inverse=True)[1].reshape(keys.shape)
    width = max(1, (q_int(kk, q) // q).bit_length())  # [kk]_q // q = [kk-1]_q
    planes = np.zeros((width, v, (v + 63) // 64), dtype=np.uint64)
    _spread(pts, _source_bits(v, np.arange(v)), planes)
    dist = np.full((v, v), kk, dtype=np.int16)
    for d in range(1, kk):
        dist -= _unpack(np.bitwise_or.reduce(planes[q_int(d, q).bit_length() - 1 :]), v)
    np.fill_diagonal(dist, 0)
    return dist


# -- verification summaries -----------------------------------------------------------

@dataclass
class GraphSummary:
    connected: bool
    diameter: object  # int, math.inf (disconnected), or None (empty graph)
    component_count: int


def diameter_and_connectivity(
    graph: GrassmannGraph, max_pairs: int = ALL_PAIRS_CAP
) -> GraphSummary:
    """Connectivity, diameter and component count from all-sources BFS.

    Used on the induced subgraph; the full graph's diameter needs no
    all-pairs pass, see `gamma_diameter`.
    """
    v = graph.num_vertices
    if v == 0:
        return GraphSummary(True, None, 0)
    dist = all_pairs_distances(graph, max_pairs=max_pairs)
    # a vertex's first reachable position names its component
    comp = np.unique((dist >= 0).argmax(axis=1)).size
    if comp > 1:
        return GraphSummary(False, inf, comp)
    return GraphSummary(True, int(dist.max()), 1)


@dataclass
class IsometryReport:
    isometric: bool
    witnesses: list
    checked_pairs: int


def isometry_check(graph: GrassmannGraph, max_pairs: int = ALL_PAIRS_CAP) -> IsometryReport:
    """Compare BFS distance inside the induced subgraph with k - dim(x ∩ y).

    Witnesses list up to _WITNESS_CAP violating pairs as
    (position_i, position_j, subgraph_distance, metric_distance), with
    inf standing for pairs in different components.
    """
    if graph.mode != "induced":
        raise BadTError("isometry check applies to the induced subgraph")
    v = graph.num_vertices
    if v <= 1:
        return IsometryReport(True, [], 0)
    d_sub = all_pairs_distances(graph, max_pairs=max_pairs)
    d_metric = metric_distance_matrix(graph, max_pairs=max_pairs)
    # both matrices are symmetric, so any mismatch shows among the pairs
    # (i, j > i) of the bad rows; witnesses are taken from those, row-major
    bad_rows = np.flatnonzero((d_sub != d_metric).any(axis=1))
    witnesses = []
    for i in bad_rows:
        js = i + 1 + np.flatnonzero(d_sub[i, i + 1 :] != d_metric[i, i + 1 :])
        for j in js[: _WITNESS_CAP - len(witnesses)]:
            ds = int(d_sub[i, j])
            witnesses.append((int(i), int(j), inf if ds < 0 else ds, int(d_metric[i, j])))
        if len(witnesses) >= _WITNESS_CAP:
            break
    return IsometryReport(bad_rows.size == 0, witnesses, v * (v - 1) // 2)
