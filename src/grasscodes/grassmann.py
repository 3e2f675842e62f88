"""Exhaustive enumeration of k-subspaces and the graphs they carry.

The full graph has every k-subspace of F_q^n as a vertex, with edges
between subspaces meeting in dimension k-1; the strength-t graph is the
subgraph induced on codes of strength >= t.  Everything here is the
brute-force oracle side of the package: vertex sets are enumerated
completely (pivot-pattern generation, canonically sorted), edges are
held as a bucket incidence (each vertex lists the cliques of the graph
it lies in), and distances come from genuine breadth-first search over
that incidence (bit-parallel from any set of sources at once).  Points,
buckets and symmetry orbits are keyed on one small RREF basis per subspace
(its annihilator's when 2k > n); `_Buckets` numbers shared keys.

Graph distance in the full graph coincides with k - dim(x ∩ y).  It is
distance-transitive, so BFS from one source, checked against the closed
form, fixes its diameter min(k, n-k).  Coordinate permutations, column
scalings and the Frobenius map preserve strength and dim(x ∩ y), so they
map the strength-t graph onto itself without moving any distance: BFS
from one representative per orbit of these maps decides connectivity and
the diameter, and the isometry check compares those BFS rows with
k - dim(x ∩ y) from the same sources.  That metric never reads edges: it
counts the points two subspaces share.  All-pairs BFS and the V x V
metric stay as the oracles the per-orbit route is tested against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import inf

import numpy as np

from . import bulk
from .errors import (
    AllPairsTooLargeError,
    BadIndicesError,
    BadTError,
    DimensionMismatchError,
    EnumerationTooLargeError,
    InternalInvariantError,
)
from .gf import FieldCtx
from .linalg import MatrixGF, Subspace, q_int, rref, subspace_count

ENUM_CAP = 1 << 21
# max size of a distance block: representatives x V per verified graph, or
# the V(V-1)/2 pairs of the all-pairs oracles
ALL_PAIRS_CAP = 1 << 25
_WITNESS_CAP = 100  # the report schema's maxItems for witnesses
_WITNESS_BATCH = 64  # BFS sources per pass while collecting witnesses


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
        self._small: np.ndarray | None = None
        self._point_keys: np.ndarray | None = None
        self._incidence: np.ndarray | None = None
        self._orbits: np.ndarray | None = None

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

    def _small_bases(self) -> np.ndarray:
        """(V, kk, n) RREF bases with kk = min(k, n-k): the subspaces' own
        bases, or their annihilators' when 2k > n.  Annihilation reverses
        inclusion and maps dim(x ∩ y) to n - 2k + dim(x ∩ y), so the points,
        buckets and symmetry orbits below are all read off these."""
        if self._small is None:
            self._small = self.bases
            if 2 * self.k > self.n:
                annihilators = _annihilators(self.ctx, self.bases, self.n, self.k)
                self._small = bulk.batched_rref(self.ctx, annihilators)[0]
        return self._small

    def point_keys(self) -> np.ndarray:
        """V x [kk]_q keys (< q^n) of the points λB of every small basis B
        (see _small_bases), λ running over the points of F_q^kk."""
        if self._point_keys is None:
            self._point_keys = _span_keys(self.ctx, self._small_bases(), 1)
        return self._point_keys

    def incidence(self) -> np.ndarray:
        """V x h bucket keys (< V^2 <= 2^42 under ENUM_CAP) of every subspace.

        Each bucket is a clique and every edge lies in exactly one bucket:
        for k <= n-k the buckets of x are its [k]_q hyperplanes, otherwise
        the [n-k]_q (k+1)-spaces containing x, so h = min([k]_q, [n-k]_q).
        The (k+1)-spaces containing x are the annihilators of the hyperplanes
        of x's annihilator, so both sides are the hyperplanes NB of a small
        basis B (see _small_bases), N a hyperplane of F_q^kk, keyed below
        q^((kk-1) n) < V^2 as (kk-1) n < 2 kk (n-kk).
        """
        if self._incidence is None:
            bases = self._small_bases()
            self._incidence = _span_keys(self.ctx, bases, bases.shape[1] - 1)
        return self._incidence

    def orbit_labels(self) -> np.ndarray:
        """Position of the smallest member of every subspace's orbit under
        coordinate permutations, column scalings and the Frobenius map.

        Built on first use, never by the enumeration itself.  Every map in
        the group preserves strength, so an orbit holding two strengths
        means the engine is broken."""
        if self._orbits is None:
            labels = _orbit_labels(self.ctx, self._small_bases())
            strengths = self.strength_all()
            if (strengths[labels] != strengths).any():
                raise InternalInvariantError("a symmetry orbit holds codes of different strength")
            self._orbits = labels
        return self._orbits


def _bulk_strengths(ctx: FieldCtx, bases: np.ndarray, n: int, k: int) -> np.ndarray:
    v = bases.shape[0]
    dual_dist = np.zeros(v, dtype=np.int16)  # 0 = no dependency found yet
    alive = np.ones(v, dtype=bool)
    # any k+1 columns of k rows are dependent, and dual distance k+1 maps to
    # strength k just as finding no dependency does, so the scan ends at s = k
    for s in range(1, k + 1):
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


def _orbit_labels(ctx: FieldCtx, bases: np.ndarray) -> np.ndarray:
    """Orbit labels of the small RREF bases, see SubspaceIndex.orbit_labels.

    The group is generated by the transposition (0 1), the n-cycle, scaling
    the last column by a primitive element and, when e > 1, the entrywise
    Frobenius map a -> a^p.  Each generator's image of every subspace is
    found by its key (< q^(kk n) < V^2), which gives the generator as a
    permutation of positions.  Only the two permutation images are
    re-RREFed.  The Frobenius map fixes 0 and 1, so it maps an RREF basis
    to an RREF basis.  The scaling leaves alone a row whose only nonzero
    entry is in the last column, a row e_(n-1) spanning its own image; in
    every other row the last column holds no pivot, so that image is RREF
    too.  A permutation conjugates a scaling of one column into a scaling
    of any other, so this is the group of every column scaling.
    Annihilation commutes with permutations and the Frobenius map and
    inverts scalings, so on the annihilators the same generators give the
    same orbits.
    """
    mul = ctx.np_tables()[2]
    v, _, n = bases.shape
    keys = _keys(ctx.q, bases)
    # annihilators' keys are not in index order
    order = np.argsort(keys, kind="stable")
    keys = keys[order]

    images = []
    if n > 1:
        for cols in ([1, 0, *range(2, n)], np.roll(np.arange(n), 1)):
            images.append(bulk.batched_rref(ctx, bases[:, :, cols])[0])
    if ctx.q > 2 and n:
        scaled = bases.copy()
        last = bases[:, :, -1]
        scaled[:, :, -1] = np.where(bases[:, :, :-1].any(axis=2), mul[last, ctx.primitive()], last)
        images.append(scaled)
    if ctx.e > 1:
        frob = np.array([ctx.pow(a, ctx.p) for a in range(ctx.q)], dtype=np.uint8)
        images.append(frob[bases])
    perms = []
    for image in images:
        want = _keys(ctx.q, image)
        at = np.minimum(np.searchsorted(keys, want), v - 1)
        if (keys[at] != want).any():
            raise InternalInvariantError("a symmetry image is missing from the index")
        perms.append(order[at])

    def step(lab):
        low = lab.copy()
        for perm in perms:
            np.minimum(low, lab[perm], out=low)
            low[perm] = np.minimum(low[perm], lab)
        return low

    return _min_labels(v, step)


def _min_labels(v: int, step) -> np.ndarray:
    """Smallest member of each class of the equivalence generated by `step`:
    step(lab) lowers each label to the least label among its neighbours.
    Min-label propagation, with pointer jumping after every step."""
    lab = np.arange(v)
    while True:
        new = step(lab)
        while True:
            jumped = new[new]
            if (jumped == new).all():
                break
            new = jumped
        if (new == lab).all():
            return lab
        lab = new


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

    vertex_ids maps graph positions to index positions, in increasing
    order.  Bucket keys drive every BFS (see `buckets`); the metric reads
    point keys instead and never reads edges.
    """

    def __init__(self, index: SubspaceIndex, t: int | None, vertex_ids: np.ndarray):
        ids = vertex_ids
        if ids.size and not (0 <= ids[0] and ids[-1] < len(index) and (np.diff(ids) > 0).all()):
            raise BadIndicesError(f"vertex ids not strictly increasing in [0, {len(index)})")
        self.index = index
        self.t = t
        self.vertex_ids = vertex_ids
        self._buckets: _Buckets | None = None
        self._points: _Buckets | None = None
        self._orbits: np.ndarray | None = None
        self._orbit_dist: np.ndarray | None = None
        self._adjacency: np.ndarray | None = None

    @property
    def mode(self) -> str:
        return "full" if self.t is None else "induced"

    @property
    def num_vertices(self) -> int:
        return int(self.vertex_ids.shape[0])

    def subspace_at(self, i: int) -> Subspace:
        return self.index.subspace_at(int(self.vertex_ids[i]))

    def buckets(self) -> _Buckets:
        """The vertices' buckets (see SubspaceIndex.incidence), for every BFS."""
        if self._buckets is None:
            self._buckets = _Buckets(self.index.incidence()[self.vertex_ids])
        return self._buckets

    def point_buckets(self) -> _Buckets:
        """The vertices' points (see SubspaceIndex.point_keys) as buckets,
        for the metric."""
        if self._points is None:
            self._points = _Buckets(self.index.point_keys()[self.vertex_ids])
        return self._points

    def orbit_labels(self) -> np.ndarray:
        """Graph position of the representative of every vertex's orbit.

        When the vertex set is a union of the index's symmetry orbits (the
        full graph and every strength class are), the symmetries are graph
        automorphisms and the representative is the orbit's smallest
        position.  Any other vertex set, which only a hand-built graph can
        have, gets every vertex as its own representative.
        """
        if self._orbits is None:
            labels = self.index.orbit_labels()
            mine = labels[self.vertex_ids]
            size = np.bincount(labels, minlength=len(self.index))
            held = np.bincount(mine, minlength=len(self.index))
            if (held[mine] == size[mine]).all():
                self._orbits = np.searchsorted(self.vertex_ids, mine)
            else:
                self._orbits = np.arange(self.num_vertices)
        return self._orbits

    def adjacency(self) -> np.ndarray:
        """Dense boolean adjacency, one spread of the identity bitsets; kept
        for the tests and the bench tracer, no verification route calls it."""
        if self._adjacency is None:
            v = self.num_vertices
            bits = _source_bits(v, np.arange(v))
            _spread(self.buckets(), _source_bits(v, np.arange(v)), bits[None])
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


def _span_keys(ctx: FieldCtx, bases: np.ndarray, r: int) -> np.ndarray:
    """V x [kk r]_q keys of the r-subspaces of the row spaces of (V, kk, n)
    RREF bases B: the keys of C B for the RREF basis C of every r-subspace
    of F_q^kk, with no reduction.  C B is already RREF: if B has pivots
    p_1 < ... < p_kk and row j of C its pivot in column c_j, then column
    p_i of C B is column i of C, so row j of C B is 0 before p_(c_j) (C is
    0 before c_j, and B's rows from c_j on are 0 before p_(c_j)), 1 there,
    and every other row is 0 there.  Both inputs are RREF by construction:
    enumerate_subspaces builds C, SubspaceIndex._small_bases builds B."""
    add, _, mul, _, _ = ctx.np_tables()
    v, kk, n = bases.shape
    if kk == 0:  # no points, so no hyperplanes either
        return np.zeros((v, 0), dtype=np.int64)
    coeffs = enumerate_subspaces(ctx, kk, r).bases[None, :, :, :, None]
    spans = mul[coeffs[:, :, :, 0], bases[:, None, None, 0, :]]
    for i in range(1, kk):
        spans = add[spans, mul[coeffs[:, :, :, i], bases[:, None, None, i, :]]]
    return _keys(ctx.q, spans)


def _keys(q: int, blocks: np.ndarray) -> np.ndarray:
    """Int64 keys of the trailing (r, c) uint8 blocks, entries read row-major
    as big-endian base-q digits, by Horner's rule: no int64 copy of them."""
    keys = np.zeros(blocks.shape[:-2], dtype=np.int64)
    for i, j in np.ndindex(*blocks.shape[-2:]):
        keys *= q
        keys += blocks[..., i, j]
    return keys


# -- distances ----------------------------------------------------------------------
#
# Rows of V x ceil(S/64) uint64 arrays are bitsets over S sources.  `_spread`
# ORs the rows of each bucket's members together and adds the result back
# into every member, O(V * h * S/64) word operations: BFS ORs it into the
# sets reached, the metric counts shared buckets in binary bit planes.


class _Buckets:
    """V x h nonnegative keys, numbered and gathered once: `inc` holds bucket
    ids 0..B-1 in key order, `members` the vertices bucket by bucket,
    starts[b] where bucket b begins, and `cuts` split the buckets into
    chunks of about V members, which bound the block `_spread` gathers."""

    def __init__(self, keys: np.ndarray):
        v, h = keys.shape
        order = np.argsort(keys.ravel(), kind="stable")
        new = np.diff(keys.ravel()[order], prepend=-1) != 0
        inc = np.empty_like(order)
        inc[order] = np.cumsum(new) - 1
        self.inc = inc.reshape(v, h)
        self.members = order // h
        self.starts = np.flatnonzero(new)
        chunks = np.searchsorted(self.starts, np.arange(0, self.members.size, max(v, 1)))
        self.cuts = np.unique(np.r_[chunks, self.starts.size])


def _source_bits(v: int, sources: np.ndarray) -> np.ndarray:
    """V x ceil(S/64) bitsets in which row sources[s] holds bit s."""
    s = np.arange(sources.size)
    bits = np.zeros((v, (sources.size + 63) // 64), dtype=np.uint64)
    bits.view(np.uint8)[sources, s >> 3] = (1 << (s & 7)).astype(np.uint8)
    return bits


def _unpack(bits: np.ndarray, count: int) -> np.ndarray:
    """Boolean matrix of the first `count` bits of each bitset row."""
    return np.unpackbits(bits.view(np.uint8), axis=1, count=count, bitorder="little").view(bool)


def _spread(buckets: _Buckets, reach: np.ndarray, planes: np.ndarray) -> None:
    """Add reach[w] to row u of the L bit planes once per bucket u shares
    with w.  The top plane is ORed, so a single plane is the OR spread of
    BFS, and counts below 2^L are exact."""
    members, starts, cuts = buckets.members, buckets.starts, buckets.cuts
    merged = np.empty((starts.size, reach.shape[1]), dtype=reach.dtype)
    for b0, b1 in zip(cuts[:-1], cuts[1:]):
        lo = starts[b0]
        hi = starts[b1] if b1 < starts.size else members.size
        merged[b0:b1] = np.bitwise_or.reduceat(reach[members[lo:hi]], starts[b0:b1] - lo, axis=0)
    for column in buckets.inc.T:
        carry = merged[column]
        for plane in planes[:-1]:
            plane ^= carry
            carry &= ~plane
        planes[-1] |= carry


def _check_pairs(v: int, max_pairs: int) -> None:
    if v * (v - 1) // 2 > max_pairs:
        raise AllPairsTooLargeError(f"{v} vertices give {v * (v - 1) // 2} pairs > cap {max_pairs}")


def _bfs(buckets: _Buckets, sources: np.ndarray) -> np.ndarray:
    """V x S BFS distances over the incidence, column s from sources[s];
    -1 marks unreachable.  One spread of the reach bitsets per level."""
    v = buckets.inc.shape[0]
    # d(u, s) is the number of levels at which u is not yet reached from s
    dist = np.zeros((v, sources.size), dtype=np.int16)
    reach = _source_bits(v, sources)
    while True:
        missing = _unpack(~reach, sources.size)
        if not missing.any():
            break
        dist += missing
        new = reach.copy()
        _spread(buckets, reach, new[None])
        if (new == reach).all():
            dist[missing] = -1
            break
        reach = new
    return dist


def _components(buckets: _Buckets) -> np.ndarray:
    """Smallest position in every vertex's connected component, by min-label
    propagation through the buckets."""

    def step(lab):
        low = np.minimum.reduceat(lab[buckets.members], buckets.starts)
        return np.minimum(lab, low[buckets.inc].min(axis=1))

    return _min_labels(buckets.inc.shape[0], step)


def all_pairs_distances(graph: GrassmannGraph, max_pairs: int = ALL_PAIRS_CAP) -> np.ndarray:
    """Exact BFS distance between every vertex pair; -1 marks unreachable.

    Breadth-first search from all sources at once: the oracle that the
    per-orbit route of diameter_and_connectivity and isometry_check is
    tested against.
    """
    v = graph.num_vertices
    _check_pairs(v, max_pairs)
    return _bfs(graph.buckets(), np.arange(v))


def gamma_diameter(index: SubspaceIndex) -> int:
    """The full graph's diameter min(k, n-k), checked by one BFS.

    The graph is distance-transitive: every vertex has q^(i^2) [k i]_q
    [n-k i]_q vertices at distance i.  BFS from vertex 0 must count exactly
    these (they sum to V, so an unreached vertex shows as a mismatch);
    anything else means the engine itself is broken.
    """
    q, n, k = index.ctx.q, index.n, index.k
    dist = _bfs(_Buckets(index.incidence()), np.zeros(1, dtype=np.int64))[:, 0]
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


def _metric_rows(graph: GrassmannGraph, sources: np.ndarray) -> np.ndarray:
    """V x S matrix of k - dim(x ∩ y) between every vertex and each source.

    x and y share s points with (q-1)s + 1 = q^dim(x ∩ y), counted in bit
    planes wide enough for [kk-1]_q, the most two distinct kk-spaces share
    (see SubspaceIndex.point_keys; dim(x⊥ ∩ y⊥) = n - 2k + dim(x ∩ y)).
    Off the diagonal s is some [e]_q, and [d]_q > 2 [d-1]_q, so s >= [d]_q
    exactly when s has a bit at or above the top bit of [d]_q.
    """
    index, v = graph.index, graph.num_vertices
    q, kk = index.ctx.q, min(index.k, index.n - index.k)
    width = max(1, (q_int(kk, q) // q).bit_length())  # [kk]_q // q = [kk-1]_q
    planes = np.zeros((width, v, (sources.size + 63) // 64), dtype=np.uint64)
    _spread(graph.point_buckets(), _source_bits(v, sources), planes)
    dist = np.full((v, sources.size), kk, dtype=np.int16)
    for d in range(1, kk):
        dist -= _unpack(np.bitwise_or.reduce(planes[q_int(d, q).bit_length() - 1 :]), sources.size)
    dist[sources, np.arange(sources.size)] = 0
    return dist


def metric_distance_matrix(graph: GrassmannGraph, max_pairs: int = ALL_PAIRS_CAP) -> np.ndarray:
    """The matrix of k - dim(x ∩ y) over the graph's vertex set: the oracle
    for the per-orbit metric rows, see _metric_rows."""
    v = graph.num_vertices
    _check_pairs(v, max_pairs)
    return _metric_rows(graph, np.arange(v))


def _orbit_bfs(graph: GrassmannGraph, max_pairs: int) -> tuple[np.ndarray, np.ndarray]:
    """(representatives, V x R BFS distances from them), see
    GrassmannGraph.orbit_labels; computed once per graph and shared by
    diameter_and_connectivity and isometry_check.  The R x V block is what
    max_pairs caps."""
    v = graph.num_vertices
    reps = np.flatnonzero(graph.orbit_labels() == np.arange(v))
    if reps.size * v > max_pairs:
        raise AllPairsTooLargeError(
            f"{reps.size} orbit representatives x {v} vertices = {reps.size * v} "
            f"distances > cap {max_pairs}"
        )
    if graph._orbit_dist is None:
        graph._orbit_dist = _bfs(graph.buckets(), reps)
    return reps, graph._orbit_dist


# -- verification summaries -----------------------------------------------------------

@dataclass
class GraphSummary:
    connected: bool
    diameter: object  # int, math.inf (disconnected), or None (empty graph)
    component_count: int


def diameter_and_connectivity(
    graph: GrassmannGraph, max_pairs: int = ALL_PAIRS_CAP
) -> GraphSummary:
    """Connectivity, diameter and component count from BFS out of one
    representative per symmetry orbit.

    A symmetry maps the representative's BFS row onto that of every vertex
    of its orbit, so the graph is connected when every representative
    reaches every vertex, and its diameter is the largest representative
    eccentricity.  Only a disconnected graph has its components counted,
    by label propagation over the incidence.  Used on the induced
    subgraph; the full graph's diameter is checked from one BFS source,
    see `gamma_diameter`.
    """
    if graph.num_vertices == 0:
        return GraphSummary(True, None, 0)
    _, dist = _orbit_bfs(graph, max_pairs)
    if (dist >= 0).all():
        return GraphSummary(True, int(dist.max()), 1)
    return GraphSummary(False, inf, int(np.unique(_components(graph.buckets())).size))


@dataclass
class IsometryReport:
    isometric: bool
    witnesses: list
    checked_pairs: int


def isometry_check(graph: GrassmannGraph, max_pairs: int = ALL_PAIRS_CAP) -> IsometryReport:
    """Compare BFS distance inside the induced subgraph with k - dim(x ∩ y).

    The representatives' BFS rows (shared with diameter_and_connectivity)
    are compared with their metric rows; symmetries preserve both, so the
    graph is isometric when these agree.  checked_pairs counts the
    V(V-1)/2 pairs that verdict covers.

    Witnesses list up to _WITNESS_CAP violating pairs as
    (position_i, position_j > position_i, subgraph_distance,
    metric_distance) in row-major order, with inf standing for pairs in
    different components.  Only orbits of mismatching representatives hold
    one; their rows are searched in position order, _WITNESS_BATCH BFS
    sources at a time.
    """
    if graph.mode != "induced":
        raise BadTError("isometry check applies to the induced subgraph")
    v = graph.num_vertices
    if v <= 1:
        return IsometryReport(True, [], 0)
    pairs = v * (v - 1) // 2
    reps, rep_rows = _orbit_bfs(graph, max_pairs)
    bad = reps[(rep_rows != _metric_rows(graph, reps)).any(axis=0)]
    suspects = np.flatnonzero(np.isin(graph.orbit_labels(), bad))
    witnesses = []
    for lo in range(0, suspects.size, _WITNESS_BATCH):
        sources = suspects[lo : lo + _WITNESS_BATCH]
        d_sub, d_metric = _bfs(graph.buckets(), sources), _metric_rows(graph, sources)
        for col, i in enumerate(sources):
            js = i + 1 + np.flatnonzero(d_sub[i + 1 :, col] != d_metric[i + 1 :, col])
            for j in js[: _WITNESS_CAP - len(witnesses)]:
                ds = int(d_sub[j, col])
                witnesses.append((int(i), int(j), inf if ds < 0 else ds, int(d_metric[j, col])))
            if len(witnesses) == _WITNESS_CAP:
                return IsometryReport(False, witnesses, pairs)
    return IsometryReport(bad.size == 0, witnesses, pairs)
