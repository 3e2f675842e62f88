"""Exhaustive enumeration of k-subspaces and the graphs they carry.

The full graph has every k-subspace of F_q^n as a vertex, with edges
between subspaces meeting in dimension k-1; the strength-t graph is the
subgraph induced on codes of strength >= t.  Everything here is the
brute-force oracle side of the package: vertex sets are enumerated
completely (RREF bases grown column by column, canonically sorted), edges
are held as a bucket incidence (each vertex lists the cliques of the graph
it lies in), and distances come from genuine breadth-first search over
that incidence (bit-parallel from any set of sources at once).  Points,
buckets and symmetry orbits are keyed on one small RREF basis per subspace
(its annihilator's, coordinates reversed, when 2k > n).  A strength class
is cut from the full graph, or from the class of a smaller t, with its
rows, strengths, small bases and span keys, and with each bucket
numbering and the orbit labels of its source restricted to it: a
verified group numbers each r's keys once as `_Buckets`, on the first
graph that needs them, and keys its orbits once, on its largest class.
BFS and the metric share one numbering when buckets are points.  Keys,
held in the narrowest of uint16, uint32 and int64 that fits them, are
numbered, and symmetry images matched to vertices, by sorting packed
words key << b | position, uint32 when they fit in 32 bits and int64
otherwise, with no argsort and no binary search.  A code has
strength >= t exactly when every t columns of its generator are
independent, so one run of a column-prefix kernel lists every subspace
with its strength: a new column lowers the strength of its prefix to the
fewest earlier columns it is a combination of, and the strength-t class
is the subspaces of strength >= t.  No verification route runs a row
reduction: span keys are built entry by entry from products C B that are
already RREF, with no block of the spans ever held, and annihilators and
the images of the symmetry generators are built in RREF, the
transposition (0 1) by reordering and scaling the first two rows, the
n-cycle by clearing the new first column with the last row that holds it.

Graph distance in the full graph coincides with k - dim(x ∩ y).  It is
distance-transitive, so BFS from one source, checked against the closed
form, fixes its diameter min(k, n-k).  Coordinate permutations, column
scalings and the Frobenius map preserve strength and dim(x ∩ y), so they
map the strength-t graph onto itself without moving any distance: BFS
from one representative per orbit of these maps decides connectivity and
the diameter, and the isometry check compares those BFS rows with
k - dim(x ∩ y) from the same sources.  A graph keys the orbits of its
own vertices only, and that keying finds every symmetry image among them
or raises, so a class that is not closed under the maps is refused rather
than verified; a class cut from a keyed graph instead inherits its
orbits, once no orbit straddles the cut, which is the same check.  The metric never reads edges: it counts the points two
subspaces share.  All-pairs BFS and the V x V metric need no symmetry and
take any vertex set; they stay as the oracles the per-orbit route is
tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import inf

import numpy as np

from .errors import (
    AllPairsTooLargeError,
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
_WORD_BITS = 63  # value bits of the int64 words (key << b | position) sorted
_NARROW_BITS = 32  # words of at most this many bits are packed as uint32
_POSITION_CHUNK = 1 << 16  # positions ORed into the words, or orbit image entries, at a time
_BFS_ROWS = 1 << 14  # vertices whose unreached bits _bfs unpacks at a time
# fewest entries read at a time by the loops that go V entries at a time:
# bucket members in _spread and _Buckets.restricted, words in _run_starts
_MIN_BLOCK = 1 << 14


# -- enumeration ----------------------------------------------------------------

class GrassmannGraph:
    """The graph induced on k-subspaces of F_q^n, canonically ordered, with
    their strengths: all of them when t is None (see enumerate_subspaces),
    else the strength-t class (see build_delta).

    bases[i] is the RREF basis of vertex i as a (k, n) uint8 block;
    the table is sorted lexicographically by row-major entries, so the
    ordering is reproducible across runs and platforms.  The strengths come
    from the kernel run that lists the bases (see enumerate_subspaces).
    Small bases, span keys, their numbering and orbits are built on first
    use, or cut with the class from the graph they were built on (see
    build_delta).  The span
    keys of r = kk - 1 drive every BFS (see `buckets`); the metric counts
    the points, r = 1, and never reads edges.  The per-orbit routes need a
    vertex set closed under the symmetries (see orbit_labels); the
    all-pairs ones take any.
    """

    def __init__(self, ctx: FieldCtx, n: int, k: int, bases: np.ndarray, strengths: np.ndarray,
                 t: int | None = None):
        self.ctx = ctx
        self.n = n
        self.k = k
        self.t = t
        self.bases = bases
        self._strengths = strengths
        self._small: np.ndarray | None = None
        self._span_keys: dict[int, np.ndarray] = {}
        self._buckets: dict[int, _Buckets] = {}
        self._orbits: np.ndarray | None = None
        self._orbit_dist: np.ndarray | None = None
        self._adjacency: np.ndarray | None = None

    def __len__(self) -> int:
        return self.bases.shape[0]

    @property
    def mode(self) -> str:
        return "full" if self.t is None else "induced"

    @property
    def num_vertices(self) -> int:
        return len(self)

    def subspace_at(self, i: int) -> Subspace:
        rows = tuple(map(tuple, self.bases[i].tolist()))
        return Subspace(self.ctx, self.n, MatrixGF._trusted(self.ctx, rows, self.n))

    def strength_all(self) -> np.ndarray:
        """Strength min(d - 1, k) of every vertex as int16, d its dual
        distance, as the kernel carried it (see _class_bases)."""
        return self._strengths

    def _small_bases(self) -> np.ndarray:
        """(V, kk, n) RREF bases with kk = min(k, n-k): the subspaces' own
        bases, or when 2k > n their annihilators' with rows and columns
        reversed, RREF as built (see _annihilators).  Annihilation maps
        dim(x ∩ y) to n - 2k + dim(x ∩ y), and reversal is an isomorphism
        mapping the group of permutations, scalings and Frobenius onto
        itself, so points, buckets and orbits are all read off these."""
        if self._small is None:
            self._small = self.bases
            if 2 * self.k > self.n:
                self._small = _annihilators(self.ctx, self.bases, self.n, self.k)[:, ::-1, ::-1]
        return self._small

    def span_keys(self, r: int) -> np.ndarray:
        """V x [kk r]_q keys (< q^(r n)) of the r-subspaces of every small
        basis (see _small_bases), uint16, uint32 or int64 as q^(r n) needs
        (see _key_dtype), built once per r until span_buckets numbers them,
        entry by entry, with no (V, [kk r]_q, r, n) block of the spans (see
        _span_keys).

        r = 1 gives the points the metric counts, r = kk - 1 the buckets
        of every BFS: each is a clique and every edge lies in exactly one.
        For k <= n-k the buckets of x are its [k]_q hyperplanes, otherwise
        the [n-k]_q (k+1)-spaces containing x, the annihilators of the
        hyperplanes of x's annihilator; so h = min([k]_q, [n-k]_q), keyed
        below q^((kk-1) n) < V^2 as (kk-1) n < 2 kk (n-kk).
        """
        if r not in self._span_keys:
            self._span_keys[r] = _span_keys(self.ctx, self._small_bases(), r)
        return self._span_keys[r]

    def span_buckets(self, r: int) -> _Buckets:
        """The span keys numbered as buckets, once per r; the keys are
        dropped once numbered."""
        if r not in self._buckets:
            self._buckets[r] = _Buckets(self.span_keys(r))
            del self._span_keys[r]
        return self._buckets[r]

    def buckets(self) -> _Buckets:
        """The buckets of every BFS: r = kk - 1 with kk = min(k, n-k)."""
        return self.span_buckets(min(self.k, self.n - self.k) - 1)

    def orbit_labels(self) -> np.ndarray:
        """Position of the smallest member of every vertex's orbit under
        coordinate permutations, column scalings and the Frobenius map,
        keyed once, on first use (see _orbit_labels), unless the graph was
        cut from one that had them (see build_delta).  These maps are
        automorphisms of the graph only when they map its vertex set onto
        itself, as they do for the full graph and every strength class; a
        vertex set they do not, which only a hand-built graph can have,
        raises InternalInvariantError, here or in build_delta."""
        if self._orbits is None:
            self._orbits = _orbit_labels(self.ctx, self._small_bases())
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


SubspaceIndex = GrassmannGraph  # the name the bench tracer binds


def _word_sums(ctx: FieldCtx, terms: int):
    """(add, enc, dec) for sums of up to `terms` field elements held in an
    encoding enc[a] where field addition is one integer ufunc: XOR of the
    elements themselves when p = 2; otherwise plain addition of the base-p
    digits spread into fields too wide to carry, reduced mod p only in
    dec[s], the element a sum s stands for.  enc keeps the elements
    themselves when e = 1 or p = 2, and when p = 2 dec is the identity."""
    if ctx.p == 2:
        plain = np.arange(ctx.q, dtype=np.uint8)
        return np.bitwise_xor, plain, plain
    p, e = ctx.p, ctx.e
    width = (terms * (p - 1)).bit_length()
    dtype = np.min_scalar_type((1 << (width * e)) - 1)
    spread = np.array(
        [sum(a // p**i % p << width * i for i in range(e)) for a in range(ctx.q)], dtype=dtype
    )
    sums = np.arange(terms * int(spread[-1]) + 1)
    dec = sum((sums >> width * i & (1 << width) - 1) % p * p**i for i in range(e)).astype(np.uint8)
    return np.add, spread, dec


def _table_take(table: np.ndarray, a, b) -> np.ndarray:
    """table[a, b] for a (q, q) field table and broadcastable arrays of
    elements a and b, as one 1-D take on the index a q + b, held as uint16
    (q <= 256, so it is at most 65,535): a 2-D gather converts both index
    arrays to intp first."""
    at = np.multiply(a, table.shape[1], dtype=np.uint16, casting="unsafe")
    return table.ravel().take(at + b)


def _orbit_labels(ctx: FieldCtx, bases: np.ndarray) -> np.ndarray:
    """Position of the smallest member of every row's orbit, among (V, kk, n)
    small RREF bases, under coordinate permutations, column scalings and
    the Frobenius map.  The rows must be closed under the group: an image
    that is not among them raises InternalInvariantError, which makes this
    the closure check of GrassmannGraph.orbit_labels.

    The group is generated by the transposition (0 1), the n-cycle, scaling
    the last column by a primitive element and, when e > 1, the entrywise
    Frobenius map a -> a^p, each found as a permutation of the rows (see
    _generator_permutations).  No image is reduced: the two permutation
    images are written down in RREF from the few rows they move (see
    _permutation_images).  The Frobenius map fixes 0 and 1, so it maps an
    RREF basis to an RREF basis.  The scaling leaves alone a row whose
    only nonzero entry is in the last column, a row e_(n-1) spanning its
    own image; in every other row the last column holds no pivot, so that
    image is RREF too.  A permutation conjugates a scaling of one column
    into a scaling of any other, so this is the group of every column
    scaling.
    Annihilation commutes with permutations and the Frobenius map and
    inverts scalings, and reversing coordinates maps the group onto
    itself, so on the reversed annihilators the same generators give the
    same orbits.

    A label only moves to the label of a generator's image of its row: a
    generator's cycles close up, so at the fixed point labels are constant
    on them, hence on orbits, with no inverse generator needed.
    """
    perms = _generator_permutations(ctx, bases)

    def step(lab):
        low = lab.copy()
        # each gather reads the labels the last one left, through an intp
        # cast (see _Buckets.restricted)
        for perm in perms:
            np.minimum(low, low.take(perm.astype(np.intp)), out=low)
        return low

    return _min_labels(len(bases), step)


def _generator_permutations(ctx: FieldCtx, bases: np.ndarray) -> list[np.ndarray]:
    """Each generator of _orbit_labels as a permutation of the rows of
    (V, kk, n) small RREF bases, int32 while V < 2^31: perm[i] is the row
    equal to the image of row i.  The rows' keys (< q^(kk n), below the
    square of the number of kk-subspaces of F_q^n) and each generator's
    image keys are sorted as packed words (see _sorted_words).  The rows'
    keys are distinct and a generator is a bijection, so its images are
    all rows exactly when their sorted keys equal the rows', and then the
    i-th sorted image is the i-th sorted row; otherwise
    InternalInvariantError.  Images are built and keyed about
    _POSITION_CHUNK entries at a time, the Frobenius image by a take
    through an intp cast of the chunk."""
    mul = ctx.np_tables()[2]
    frob = np.array([ctx.pow(a, ctx.p) for a in range(ctx.q)], dtype=np.uint8)
    v, kk, n = bases.shape
    step = max(1, _POSITION_CHUNK // max(kk * n, 1))
    parts = []
    for lo in range(0, max(v, 1), step):
        # (kk, n, V): entry (i, j) of every basis in one contiguous row
        cols = np.ascontiguousarray(bases[lo : lo + step].transpose(1, 2, 0))
        images = _permutation_images(ctx, cols.transpose(2, 0, 1)) if n > 1 and kk else []
        if ctx.q > 2 and n:
            scaled = cols.copy()
            last = cols[:, -1]
            scaled[:, -1] = np.where(cols[:, :-1].any(axis=1), mul[last, ctx.primitive()], last)
            images.append(scaled.transpose(2, 0, 1))
        if ctx.e > 1:
            images.append(frob.take(cols.astype(np.intp)).transpose(2, 0, 1))
        parts.append([_keys(ctx.q, block) for block in (cols.transpose(2, 0, 1), *images)])
    keys = np.concatenate(parts, axis=1)
    del parts
    words, b = _sorted_words(keys, (ctx.q ** (kk * n) - 1).bit_length())
    del keys
    first, rows = words[0] >> b, words[0] & (1 << b) - 1
    perms, dtype = [], _id_dtype(v)
    for image in words[1:]:
        if ((image >> b) != first).any():
            raise InternalInvariantError("a symmetry image of a vertex is not a vertex")
        at = image & (1 << b) - 1
        perm = np.empty(v, dtype=dtype)
        perm[at] = rows
        perms.append(perm)
    return perms


def _permutation_images(ctx: FieldCtx, bases: np.ndarray) -> list[np.ndarray]:
    """RREF bases of the images of (V, kk, n) RREF bases, kk >= 1 and
    n >= 2, under the transposition (0 1) and the n-cycle that moves the
    last column to the front, each a few table gathers with no column loop,
    worked on the (kk, n, V) transpose, so that every operation runs along
    V rather than the tiny kk x n axes.

    Transposition (0 1): every row but the first two is 0 in columns 0
    and 1, so only those two change.  Row 1 of the swapped basis is
    nonzero in column 0 only when columns 0 and 1 were both pivots; then
    rows 0 and 1 swap back.  Row 0 is then RREF once scaled by the inverse
    of its column-0 entry, when that entry is nonzero.

    n-cycle: let c be the rolled column 0, the old last column.  When c is
    0 the rolled basis is RREF.  Otherwise the last row m with c_m != 0,
    times 1/c_m, becomes row 0, and every other row j subtracts c_j times
    it; the rest keep their order.  Row m's pivot column turns free.  As
    an RREF row, row m is 0 at every other row's pivot, so those pivots
    survive, and rows below m are untouched (c_j = 0).  Rows above m have
    pivots before row m's, where row m is 0, so they gain nothing ahead of
    their pivots; an earlier m would put entries ahead of a later row's.
    """
    _, sub, mul, inv, _ = ctx.np_tables()
    v, kk, n = bases.shape
    unit = inv.copy()
    unit[0] = 1  # a row with nothing to normalize is left as it is
    cols = np.ascontiguousarray(bases.transpose(1, 2, 0))
    swapped = cols[:, [1, 0, *range(2, n)]]
    if kk > 1:
        swapped[:2] = np.where(swapped[1, 0] != 0, swapped[1::-1], swapped[:2])
    swapped[0] = _table_take(mul, swapped[0], unit[swapped[0, :1]])

    rolled = cols[:, np.roll(np.arange(n), 1)]
    c = rolled[:, 0]
    # m: the last row with c != 0, or row 0 when c = 0, which leaves all as is
    m, top = np.zeros(v, dtype=np.uint8), rolled[0]
    for i in range(1, kk):
        hit = c[i] != 0
        m[hit] = i
        top = np.where(hit, rolled[i], top)
    top = _table_take(mul, top, unit[top[:1]])
    rows = _table_take(sub, rolled, _table_take(mul, c[:, None], top[None]))
    rolled[0] = top
    for i in range(1, kk):  # the rows above m move down one
        rolled[i] = np.where(m < i, rows[i], rows[i - 1])
    return [swapped.transpose(2, 0, 1), rolled.transpose(2, 0, 1)]


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


def _class_bases(ctx: FieldCtx, n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(bases, strengths): the (V, k, n) RREF bases of every k-subspace of
    F_q^n, in no set order, and the strength of each as int16, capped at k.

    The bases grow column by column.  After j columns a prefix is an RREF
    block of some rank r and strength s so far, k for the empty prefix.
    The next column is the pivot e_r (r < k), which keeps s, or a free v in
    F_q^r, allowed when r + (columns after it) >= k so that the missing
    pivots still fit.  A free v lowers s to m(v), the fewest earlier
    columns v is a combination of (at most r, as the pivots give every v),
    read capped at min(s, r) from a (prefixes, q^r) table filled from the
    combinations of fewer than min(s, r) columns: those of exactly i
    columns, all coefficients nonzero, are those of i - 1 plus a multiple
    of a later column, listed once for every i < k (no strength is
    larger), none when k = n leaves no column free.  Prefixes are held by
    rank, so each table is rectangular, and the children of a rank are
    written into one preallocated block, pivot children first.
    """
    add, _, mul, _, _ = ctx.np_tables()
    q = ctx.q
    # digits[v] is the vector of F_q^k keyed v = sum_i v_i q^i, so the
    # first q^r rows are F_q^r; with k = n no column is free
    cube = (q if k < n else 1,) * k
    digits = np.indices(cube, dtype=np.uint8).reshape(k, math.prod(cube))[::-1].T
    powers = q ** np.arange(k)
    # layers[i - 1]: (parent, last column q + its coefficient) of each sum of i
    # columns, by last column; before[i - 1][j] counts those of the first j
    layers, before, last = [], [], np.full(1, -1)  # the empty sum's
    for _ in range(1, k if k < n else 1):
        col, parent = np.nonzero(last < np.arange(n - 1)[:, None])
        before.append(np.bincount(col + 1, minlength=n).cumsum() * (q - 1))
        last = np.repeat(col, q - 1)
        layers.append((np.repeat(parent, q - 1), last * q + 1 + np.arange(last.size) % (q - 1)))
    groups = {0: (np.zeros((1, k, 0), dtype=np.uint8), np.full(1, k, dtype=np.uint8))}
    for j in range(n):
        pivots = {r + 1: len(pre) for r, (pre, _) in groups.items() if r < k}
        frees = {r: len(pre) * q**r for r, (pre, _) in groups.items() if r >= k - (n - 1 - j)}
        sizes = {r: pivots.get(r, 0) + frees.get(r, 0) for r in pivots.keys() | frees.keys()}
        grown = {r: (np.empty((size, k, j + 1), dtype=np.uint8), np.empty(size, dtype=np.uint8))
                 for r, size in sizes.items()}
        for r, (pre, s) in groups.items():
            c = len(pre)
            if r < k:
                block, strength = grown[r + 1]
                block[:c, :, :j] = pre
                block[:c, :, j] = 0
                block[:c, r, j] = 1
                strength[:c] = s
            if r not in frees:
                continue
            caps = np.minimum(s, r)
            order = np.argsort(caps, kind="stable")[::-1]
            pre, caps = pre[order], caps[order]  # so each layer reads a leading slice
            table = np.repeat(caps[:, None], q**r, axis=1)
            table[:, 0] = 0
            if r > 1:  # else none is read; scaled[p, :, col q + a] = a pre[p, :r, col]
                scaled = _table_take(mul, pre[:, :r, :, None], np.arange(q)).reshape(c, r, -1)
                flat, rows = table.reshape(-1), q**r * np.arange(c)[:, None]
                for i, (parent, term_at) in enumerate(layers, 1):
                    live, m = int(np.count_nonzero(caps > i)), before[i - 1][j]
                    if not live:
                        break
                    term = scaled[:live, :, term_at[:m]]
                    sums = term if i == 1 else _table_take(add, sums[:live, :, parent[:m]], term)
                    at = powers[:r] @ sums + rows[:live]
                    flat[at] = np.minimum(flat[at], i)
            block, strength = grown[r]
            child = block[pivots.get(r, 0) :].reshape(table.shape + (k, j + 1))
            child[..., :j] = pre[:, None]
            child[..., j] = digits[: q**r]
            strength[pivots.get(r, 0) :] = table.ravel()
        groups = grown
    bases, strengths = groups[k]  # the only rank left
    return bases, strengths.astype(np.int16)


def enumerate_subspaces(
    ctx: FieldCtx, n: int, k: int, max_count: int = ENUM_CAP
) -> GrassmannGraph:
    """Every k-subspace of F_q^n as its RREF basis, with its strength: one
    run of the column-prefix kernel (see _class_bases), sorted by row-major
    entries.

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
    bases, strengths = _class_bases(ctx, n, k)
    if len(bases) != total:
        raise InternalInvariantError(
            f"enumerated {len(bases)} subspaces, expected {total}"
        )
    if k * n:
        order = np.lexsort(bases.reshape(total, k * n).T[::-1])
        bases, strengths = bases[order], strengths[order]
    return GrassmannGraph(ctx, n, k, bases, strengths)


# -- metric ------------------------------------------------------------------------

def grassmann_distance(x: Subspace, y: Subspace) -> int:
    """k - dim(x ∩ y) = rank of the stacked bases minus k."""
    if x.dim != y.dim:
        raise DimensionMismatchError("subspaces of different dimension")
    x._check_ambient(y)
    _, rank = rref(x.basis.stack(y.basis))
    return rank - x.dim


# -- graphs -------------------------------------------------------------------------

def build_delta(graph: GrassmannGraph, t: int) -> GrassmannGraph:
    """Subgraph induced on the strength-t class of `graph`, the full graph
    or any class of smaller t: a graph of its own rows, cut with their
    strengths, small bases and every span key already built, holding no
    reference to the graph it is cut from.

    Every bucket numbering of the source is restricted to the class with
    no sort (see _Buckets.restricted).  When the source has orbit labels
    the class takes them too, renumbered, once no orbit straddles the
    cut: that is the class's closure check (see orbit_labels), so an
    orbit with members on both sides raises InternalInvariantError."""
    if not 1 <= t <= graph.k:
        raise BadTError(f"t must be in [1, k={graph.k}], got {t}")
    keep = graph.strength_all() >= t
    pos = np.cumsum(keep)
    pos -= 1  # pos[i]: the row that kept row i becomes
    delta = GrassmannGraph(graph.ctx, graph.n, graph.k, graph.bases[keep], graph._strengths[keep], t)
    if graph._small is not None and graph._small is not graph.bases:
        delta._small = graph._small[keep]
    delta._span_keys = {r: keys[keep] for r, keys in graph._span_keys.items()}
    delta._buckets = {r: buckets.restricted(keep, pos) for r, buckets in graph._buckets.items()}
    if graph._orbits is not None:
        if (keep[graph._orbits] != keep).any():
            raise InternalInvariantError("a symmetry orbit straddles the strength-t class")
        delta._orbits = pos[graph._orbits[keep]]
    return delta


def _annihilators(ctx: FieldCtx, bases: np.ndarray, n: int, k: int) -> np.ndarray:
    """(V, n-k, n) bases of the annihilators of the RREF bases (V, k, n).

    Free column f of an RREF basis gives the kernel vector e_f minus
    sum_i bases[i, f] e_(pivot i): row j of the block is e_j on the free
    columns and minus column j of B_F, the bases on their free columns, on
    the pivots.  So row j is e_(f_j) plus entries only at pivots p_i < f_j,
    and every other row is 0 at f_j: with rows and columns reversed, each
    row leads with the 1 of its e_(f_j), in a column cleared in the other
    rows, and the leads move right down the rows, so the block is RREF as
    built.  B_F and the block are read and written through the free-column
    mask, with no index arrays.
    """
    neg = ctx.np_tables()[4]
    v = bases.shape[0]
    free = np.ones((v, n), dtype=bool)
    free[np.arange(v)[:, None], (bases != 0).argmax(axis=2)] = False
    b_f = bases[np.broadcast_to(free[:, None, :], bases.shape)].reshape(v, k, n - k)
    out = np.empty((v, n - k, n), dtype=np.uint8)
    on_free = np.broadcast_to(free[:, None, :], out.shape)
    out[on_free] = np.tile(np.eye(n - k, dtype=np.uint8).ravel(), v)
    out[~on_free] = neg[b_f.transpose(0, 2, 1)].ravel()
    return out


def _span_keys(ctx: FieldCtx, bases: np.ndarray, r: int) -> np.ndarray:
    """V x [kk r]_q keys of the r-subspaces of the row spaces of (V, kk, n)
    RREF bases B: the keys of C B for the RREF basis C of every r-subspace
    of F_q^kk, with no reduction.  C B is already RREF: if B has pivots
    p_1 < ... < p_kk and row j of C its pivot in column c_j, then column
    p_i of C B is column i of C, so row j of C B is 0 before p_(c_j) (C is
    0 before c_j, and B's rows from c_j on are 0 before p_(c_j)), 1 there,
    and every other row is 0 there.  Both inputs are RREF by construction:
    enumerate_subspaces builds C, and GrassmannGraph._small_bases gives B as
    the graph's own bases or the reversed annihilators (see _annihilators).

    The keys are built entry by entry, read row-major as big-endian base-q
    digits, with nothing larger than (V, m) alive for the m = [kk r]_q
    subspaces C.  Entry (a, j) of C B sums C[:, a, i] B[:, i, j] over the
    i with a <= i <= j, the others being 0 in RREF: each product is one
    take of the rows B[:, i, j] of a (q, m) table of C[:, a, i] times
    every element, encoded so that the sum is one integer ufunc (see
    _word_sums), and the sum is decoded once, with no intp copy of it: mod
    p in place when e = 1, where the encoding is the elements themselves,
    and otherwise by dec.take through an intp cast of _POSITION_CHUNK sums
    at a time, added straight into the keys (numpy gathers through an
    intp index faster than through the uint8 sums).  The keys are held in
    the narrowest dtype that fits q^(r n) - 1 (see _key_dtype)."""
    v, kk, n = bases.shape
    dtype = _key_dtype(ctx.q ** (r * n))
    if kk == 0:  # no points, so no hyperplanes either
        return np.zeros((v, 0), dtype=dtype)
    add, enc, dec = _word_sums(ctx, kk)
    coeffs = enumerate_subspaces(ctx, kk, r).bases.transpose(1, 2, 0)
    # times[a, i, b] is C[:, a, i] b, encoded
    times = enc[ctx.np_tables()[2][np.arange(ctx.q)[:, None], coeffs[:, :, None, :]]]
    keys = np.zeros((v, coeffs.shape[2]), dtype=dtype)
    flat = keys.reshape(-1)
    for a, j in np.ndindex(r, n):
        keys *= ctx.q
        if j < a:
            continue
        acc = times[a, a].take(bases[:, a, j], axis=0)
        for i in range(a + 1, min(j, kk - 1) + 1):
            add(acc, times[a, i].take(bases[:, i, j], axis=0), out=acc)
        if ctx.p == 2 or ctx.e == 1:  # dec is the identity at p = 2
            keys += acc if ctx.p == 2 else np.remainder(acc, ctx.p, out=acc)
            continue
        sums = acc.reshape(-1)
        for lo in range(0, sums.size, _POSITION_CHUNK):
            hi = lo + _POSITION_CHUNK
            flat[lo:hi] += dec.take(sums[lo:hi].astype(np.intp))
    return keys


def _key_dtype(bound: int) -> type:
    """The dtype of keys below `bound`: uint16 when bound <= 2^16, uint32
    when bound <= 2^32, else int64."""
    return np.uint16 if bound <= 1 << 16 else np.uint32 if bound <= 1 << 32 else np.int64


def _keys(q: int, blocks: np.ndarray) -> np.ndarray:
    """Keys of the trailing (r, c) uint8 blocks, entries read row-major as
    big-endian base-q digits, by Horner's rule in the dtype of keys below
    q^(r c) (see _key_dtype): no copy of the digits in that dtype."""
    keys = np.zeros(blocks.shape[:-2], dtype=_key_dtype(q ** math.prod(blocks.shape[-2:])))
    for i, j in np.ndindex(*blocks.shape[-2:]):
        keys *= q
        keys += blocks[..., i, j]
    return keys


def _sorted_words(keys: np.ndarray, key_bits: int) -> tuple[np.ndarray, int]:
    """(words, b): each row of (m, L) nonnegative keys below 2^key_bits
    packed as key << b | position in the row, b the bit length of L - 1,
    and sorted in place by numpy's SIMD sort, which outruns an argsort of
    the keys.  The words of a row are distinct, so their order is the
    keys' order with ties in position order, the stable order.  The
    words are uint32 when key_bits + b <= _NARROW_BITS, as for the
    buckets of (9,4,2) (13 + 17 bits), else int64, the same
    narrow-when-it-fits rule as _id_dtype.  When a word would not fit in
    _WORD_BITS bits, the keys of all rows are first replaced by their
    dense ranks among them all, which keeps their order and never happens
    under ENUM_CAP (at most 48 bits for buckets and 63 for orbit keys,
    both at (37,4,2))."""
    size = keys.shape[1]
    b = (size - 1).bit_length()
    if key_bits + b > _WORD_BITS:
        keys = np.unique(keys, return_inverse=True)[1].reshape(keys.shape)
        key_bits = (keys.size - 1).bit_length()
    dtype = np.uint32 if key_bits + b <= _NARROW_BITS else np.int64
    words = np.left_shift(keys, b, dtype=dtype, casting="unsafe")
    for lo in range(0, size, _POSITION_CHUNK):  # no (m, L) temporary
        hi = min(lo + _POSITION_CHUNK, size)
        words[:, lo:hi] |= np.arange(lo, hi, dtype=dtype)
    words.sort(axis=1)
    return words, b


# -- distances ----------------------------------------------------------------------
#
# Rows of V x ceil(S/64) uint64 arrays are bitsets over S sources.  `_spread`
# ORs the rows of each bucket's members together and adds the result back
# into every member, O(V * h * S/64) word operations: BFS ORs it into the
# sets reached, the metric counts shared buckets in binary bit planes.


class _Buckets:
    """V x h nonnegative keys, numbered and gathered once: `inc` holds bucket
    ids 0..B-1 in key order, `members` the vertices bucket by bucket, in
    position order inside a bucket, starts[b] where bucket b begins, and
    `cuts` split the buckets into chunks of about max(V, _MIN_BLOCK)
    members, which bound the block `_spread` gathers.  `inc` is the (V, h)
    transpose view of an (h, V) table, so each column `_spread` gathers
    by is contiguous.
    `inc` and `members` are int32 unless V h reaches 2^31 (B <= V h),
    which only --max-vertices above ENUM_CAP allows; then int64.

    Entry (u, j) is sorted as the word key << b | u h + j, b the bit
    length of V h - 1 (see _sorted_words), so members come out in
    position order.  The words are then consumed in place: bucket starts
    are marked from their keys and each becomes the position j V + u of
    its entry in the (h, V) table (see _run_starts).  The ids, each
    bucket's repeated over its run, are scattered there through intp
    casts of max(V, _MIN_BLOCK) words at a time (no copy of int64
    words), and each block of ids is then overwritten with its members,
    u = w - (w // V) V for w = j V + u worked in the words' dtype when the
    ids have its width (numpy divides by a scalar several times faster
    than it takes a remainder), else w mod V in place, which needs no
    cast buffer.  Besides the keys, the numbering holds the words,
    uint32 or int64, and the int32 tables."""

    def __init__(self, keys: np.ndarray):
        v, h = keys.shape
        size = v * h
        words, b = _sorted_words(keys.reshape(1, size), int(keys.max(initial=0)).bit_length())
        words = words[0]
        self.starts = np.flatnonzero(_run_starts(words, b, v, h))
        self.cuts = _cuts(self.starts, v)
        dtype = _id_dtype(size)
        ids = np.repeat(np.arange(self.starts.size, dtype=dtype), np.diff(self.starts, append=size))
        inc = np.empty((h, v), dtype=dtype)
        flat, step = inc.reshape(-1), max(v, _MIN_BLOCK)
        for lo in range(0, size, step):
            w, out = words[lo : lo + step], ids[lo : lo + step]
            flat[w.astype(np.intp, copy=False)] = out
            if out.itemsize != w.itemsize:  # w mod V in place: no cast buffers
                out[:] = np.remainder(w, v, out=w)
                continue
            out = out.view(w.dtype)
            np.floor_divide(w, v, out=out)
            out *= v
            np.subtract(w, out, out=out)
        self.inc, self.members = inc.T, ids

    def restricted(self, keep: np.ndarray, pos: np.ndarray) -> _Buckets:
        """The numbering of the rows where keep holds, row i becoming row
        pos[i]: array for array _Buckets(keys[keep]), with no sort.  A
        bucket keeps its kept members in order, renumbered by the monotone
        pos, so still in position order; buckets left empty drop out and
        the ids of the rest close up, so still in key order.

        The tables are read max(V, _MIN_BLOCK) entries at a time, each cast
        to intp before it indexes: numpy gathers through an int32 index
        about three times slower than through the cast, and the blocks keep
        the casts small."""
        v, h = int(np.count_nonzero(keep)), self.inc.shape[1]
        dtype = _id_dtype(v * h)
        moved = np.where(keep, pos, -1).astype(dtype)  # -1: not kept
        members = np.empty_like(self.members, dtype=dtype)
        block = max(len(keep), _MIN_BLOCK)
        for lo in range(0, members.size, block):
            members[lo : lo + block] = moved[self.members[lo : lo + block].astype(np.intp)]
        kept = members >= 0
        sizes = np.add.reduceat(kept, self.starts) if self.starts.size else self.starts
        ids = np.cumsum(sizes > 0, dtype=dtype)
        ids -= 1
        inc = np.empty((h, v), dtype=dtype)
        for j, column in enumerate(self.inc.T):
            inc[j] = ids[column[keep].astype(np.intp)]
        out = object.__new__(type(self))
        out.inc, out.members = inc.T, members[kept]
        sizes = sizes[sizes > 0]
        out.starts = np.cumsum(sizes) - sizes
        out.cuts = _cuts(out.starts, v)
        return out


def _cuts(starts: np.ndarray, v: int) -> np.ndarray:
    """Bucket chunks of about m = max(V, _MIN_BLOCK) members for _spread:
    a cut at the first bucket that starts in each block of m member
    positions."""
    blocks = starts // max(v, _MIN_BLOCK)
    return np.r_[np.flatnonzero(np.diff(blocks, prepend=-1)), starts.size]


def _run_starts(words: np.ndarray, b: int, v: int, h: int) -> np.ndarray:
    """True where the sorted words key << b | u h + j of V x h keys start a
    run of equal keys.  max(V, _MIN_BLOCK) words at a time, each word is
    then turned in place into j V + u, the position of its entry in the
    (h, V) table, worked in the words' dtype: uint32 arithmetic that
    wraps still leaves j V + u < 2^32 exact."""
    new = np.empty(words.size, dtype=bool)
    step = max(v, _MIN_BLOCK)
    buf = np.empty(min(step, words.size), dtype=words.dtype)
    last = -1
    for lo in range(0, words.size, step):
        w = words[lo : lo + step]
        key = np.right_shift(w, b, out=buf[: w.size])
        new[lo] = key[0] != last
        np.not_equal(key[1:], key[:-1], out=new[lo + 1 : lo + step])
        last = key[-1]
        w &= (1 << b) - 1
        u = np.floor_divide(w, h, out=key)
        # j v + u = (u h + j) v - u (h v - 1), exact even if w v wraps
        w *= v
        u *= h * v - 1
        w -= u
    return new


def _id_dtype(size: int) -> type:
    """int32 for the bucket ids and members of V x h keys with V h = size,
    or a permutation of V = size rows, below 2^31, else int64."""
    return np.int32 if size < 1 << 31 else np.int64


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
    BFS, and counts below 2^L are exact.  Members and columns are cast to
    intp a chunk or a column at a time before they index (see
    _Buckets.restricted)."""
    members, starts, cuts = buckets.members, buckets.starts, buckets.cuts
    merged = np.empty((starts.size, reach.shape[1]), dtype=reach.dtype)
    for b0, b1 in zip(cuts[:-1], cuts[1:]):
        lo = starts[b0]
        hi = starts[b1] if b1 < starts.size else members.size
        rows = reach.take(members[lo:hi].astype(np.intp), axis=0)
        merged[b0:b1] = np.bitwise_or.reduceat(rows, starts[b0:b1] - lo, axis=0)
    for column in buckets.inc.T:
        carry = merged.take(column.astype(np.intp), axis=0)
        for plane in planes[:-1]:
            plane ^= carry
            carry &= ~plane
        planes[-1] |= carry


def _check_pairs(v: int, max_pairs: int) -> None:
    if v * (v - 1) // 2 > max_pairs:
        raise AllPairsTooLargeError(f"{v} vertices give {v * (v - 1) // 2} pairs > cap {max_pairs}")


def _bfs(buckets: _Buckets, sources: np.ndarray) -> np.ndarray:
    """V x S BFS distances over the incidence, column s from sources[s];
    -1 marks unreachable.  One spread of the reach bitsets per level; the
    rows not yet reached are unpacked _BFS_ROWS vertices at a time."""
    v, s = buckets.inc.shape[0], sources.size
    # d(u, s) is the number of levels at which u is not yet reached from s
    dist = np.zeros((v, s), dtype=np.int16)
    reach = _source_bits(v, sources)
    while True:
        missing = False
        for lo in range(0, v, _BFS_ROWS):
            block = _unpack(~reach[lo : lo + _BFS_ROWS], s)
            dist[lo : lo + _BFS_ROWS] += block
            missing = missing or block.any()
        if not missing:
            break
        new = reach.copy()
        _spread(buckets, reach, new[None])
        if (new == reach).all():
            for lo in range(0, v, _BFS_ROWS):
                dist[lo : lo + _BFS_ROWS][_unpack(~reach[lo : lo + _BFS_ROWS], s)] = -1
            break
        reach = new
    return dist


def _components(buckets: _Buckets) -> np.ndarray:
    """Smallest position in every vertex's connected component, by min-label
    propagation through the buckets, gathering through intp casts of the
    members and of one column at a time (see _Buckets.restricted)."""

    def step(lab):
        low = np.minimum.reduceat(lab.take(buckets.members.astype(np.intp)), buckets.starts)
        new = lab.copy()
        for column in buckets.inc.T:
            np.minimum(new, low.take(column.astype(np.intp)), out=new)
        return new

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


def gamma_diameter(graph: GrassmannGraph) -> int:
    """The full graph's diameter min(k, n-k), checked by one BFS.

    The graph is distance-transitive: every vertex has q^(i^2) [k i]_q
    [n-k i]_q vertices at distance i.  BFS from vertex 0 must count exactly
    these (they sum to V, so an unreached vertex shows as a mismatch);
    anything else means the engine itself is broken.  The graph keeps the
    buckets numbered here, and build_delta restricts them to each class.
    """
    q, n, k = graph.ctx.q, graph.n, graph.k
    dist = _bfs(graph.buckets(), np.zeros(1, dtype=np.int64))[:, 0]
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
    """V x S int8 matrix of k - dim(x ∩ y) between every vertex and each source.

    x and y share s points with (q-1)s + 1 = q^dim(x ∩ y), counted in bit
    planes wide enough for [kk-1]_q, the most two distinct kk-spaces share
    (see GrassmannGraph.span_keys; dim(x⊥ ∩ y⊥) = n - 2k + dim(x ∩ y)).
    Off the diagonal s is some [e]_q, and [d]_q > 2 [d-1]_q, so s >= [d]_q
    exactly when s has a bit at or above the top bit of [d]_q.
    """
    v = graph.num_vertices
    q, kk = graph.ctx.q, min(graph.k, graph.n - graph.k)
    width = max(1, (q_int(kk, q) // q).bit_length())  # [kk]_q // q = [kk-1]_q
    planes = np.zeros((width, v, (sources.size + 63) // 64), dtype=np.uint64)
    _spread(graph.span_buckets(1), _source_bits(v, sources), planes)
    dist = np.full((v, sources.size), kk, dtype=np.int8)
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
        # the S x V mismatches of each source i with a later j, read row-major
        col, j = np.nonzero((d_sub.T != d_metric.T) & (np.arange(v) > sources[:, None]))
        col, j = col[: _WITNESS_CAP - len(witnesses)], j[: _WITNESS_CAP - len(witnesses)]
        witnesses += [
            (i, jj, inf if ds < 0 else ds, dm)
            for i, jj, ds, dm in zip(
                sources[col].tolist(), j.tolist(), d_sub[j, col].tolist(), d_metric[j, col].tolist()
            )
        ]
        if len(witnesses) == _WITNESS_CAP:
            return IsometryReport(False, witnesses, pairs)
    return IsometryReport(bad.size == 0, witnesses, pairs)
