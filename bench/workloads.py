"""The benchmark's workloads, driven through the public grasscodes API.

Each workload builds its inputs from a seed in its constructor (the
set-up), runs one *pass* over a fixed list of operations in
`run_pass()`, and checks a pass's outputs in `check()`.  Calls into
grasscodes go through module attributes (`construct.geodesic_path`, never
a name imported into this file), so the tracer's rebinding reaches them.

Every pass works on fresh `LinearCode` objects: a code caches its
strength and dual distance, and reusing one would let later passes skip
work the first one did.
"""

from __future__ import annotations

import json
import random
from math import comb
from pathlib import Path
from time import perf_counter

from grasscodes import codes, construct, gf, grassmann, linalg, sweep
from grasscodes.errors import GrassCodesError

EXPECTED_SWEEP = Path(__file__).with_name("sweep_expected.jsonl")
KNOWN_GAP = (2, 2, 1, 1)  # single-vertex class; its diameter clause cannot hold


class Failed:
    """Stands for the output of an operation that raised."""

    def __init__(self, exc: BaseException):
        self.error = f"{type(exc).__name__}: {exc}"

    def __repr__(self):
        return f"Failed({self.error})"


def timed(thunks) -> tuple[list, list[float]]:
    """(outputs, seconds per operation); an exception becomes a Failed output."""
    outputs, latencies = [], []
    for thunk in thunks:
        start = perf_counter()
        try:
            out = thunk()
        except Exception as exc:  # a failed operation is counted, not fatal
            out = Failed(exc)
        latencies.append(perf_counter() - start)
        outputs.append(out)
    return outputs, latencies


def nondegenerate_count(q: int, n: int, k: int) -> int:
    """k-subspaces of F_q^n in no coordinate hyperplane, i.e. of strength >= 1:
    inclusion-exclusion over the coordinates they vanish on."""
    return sum(
        (-1) ** j * comb(n, j) * linalg.subspace_count(n - j, k, q) for j in range(n + 1)
    )


def _rows(code) -> tuple:
    return code.generator.rows


# -- sweep-ref -----------------------------------------------------------------------

REF_GROUPS = ((9, 4, 2), (4, 5, 2), (2, 6, 3))
SMOKE_GROUPS = ((4, 4, 2), (2, 5, 2))


def strip_wall(line: str) -> str:
    """A report line without its timing field, the part that must not change."""
    report = json.loads(line)
    del report["wall_ms"]
    return json.dumps(report, separators=(",", ":"))


class SweepRef:
    """`run_sweep` over whole (q, n, k) groups, every t, one worker.

    Each instance is verified and serialized with `report_json_line`, and
    is checked as one operation.  Latency is taken per group, one
    `run_sweep` call, because run_sweep yields a group's reports together.
    The inputs are fixed, so the seed changes nothing.
    """

    name = "sweep-ref"

    def __init__(self, seed: int, groups=REF_GROUPS):
        self.groups = tuple(groups)
        self.instances = [(q, n, k, t) for q, n, k in self.groups for t in range(1, k + 1)]
        for q, _, _ in self.groups:
            gf.field_of_order(q)
        expected = {}
        for line in EXPECTED_SWEEP.read_text().splitlines():
            r = json.loads(line)
            expected[(r["q"], r["n"], r["k"], r["t"])] = line
        missing = [inst for inst in self.instances if inst not in expected]
        if missing:
            raise ValueError(f"no recorded report line for {missing}")
        self.expected = [expected[inst] for inst in self.instances]

    def run_pass(self) -> tuple[list, list[float]]:
        outputs, latencies = [], []
        for q, n, k in self.groups:
            config = sweep.SweepConfig(q_list=[q], n_list=[n], k_list=[k], workers=1)
            lines = []
            start = perf_counter()
            try:
                for report in sweep.run_sweep(config):
                    lines.append(sweep.report_json_line(report))
            except Exception as exc:  # the group's remaining instances fail
                lines += [Failed(exc)] * (k - len(lines))
            latencies.append(perf_counter() - start)
            outputs += lines
        return outputs, latencies

    def digest(self, out):
        return None if isinstance(out, Failed) else strip_wall(out)

    def check(self, outputs) -> list[bool]:
        ok = []
        for (q, n, k, t), expected, out in zip(self.instances, self.expected, outputs):
            if isinstance(out, Failed):
                ok.append(False)
                continue
            r = json.loads(out)
            good = strip_wall(out) == expected and (r["q"], r["n"], r["k"], r["t"]) == (q, n, k, t)
            if t == 1:
                good = good and r["class_size"] == nondegenerate_count(q, n, k)
            if r["bound_satisfied"] and (q, n, k, t) != KNOWN_GAP:
                good = good and (
                    r["connected"] is True
                    and r["isometric"] is True
                    and r["diameter_delta"] == r["diameter_gamma"] == min(k, n - k)
                    and r["caps_hit"] == []
                )
            ok.append(good)
        return ok


# -- construct-witnesses ------------------------------------------------------------

# (q, n, k, t, pairs per distance), above the bound q >= C(n, t), so every
# construction must succeed.  (29, 8, 4, 2) gets fewer pairs because its
# calls cost 5-20 times more than the others'.
CONSTRUCT_INSTANCES = (
    (9, 4, 2, 2, 16), (11, 5, 2, 2, 16), (8, 6, 3, 1, 16), (16, 6, 3, 2, 16), (29, 8, 4, 2, 6),
)


def _random_code(ctx, n, k, t, rng):
    while True:
        rows = [[rng.randrange(ctx.q) for _ in range(n)] for _ in range(k)]
        c = codes.LinearCode.from_generator(ctx, rows, n=n)
        if c.k == k and codes.strength(c) >= t:
            return c


def _partner(ctx, x, d, t, rng):
    """A strength-t code at distance exactly d from x: k-d random vectors
    of x plus d random vectors of the ambient space."""
    n, k = x.n, x.k
    while True:
        rows = []
        for _ in range(k - d):
            v = [0] * n
            for r in x.generator.rows:
                c = rng.randrange(ctx.q)
                v = [ctx.add(a, ctx.mul(c, b)) for a, b in zip(v, r)]
            rows.append(v)
        rows += [[rng.randrange(ctx.q) for _ in range(n)] for _ in range(d)]
        y = codes.LinearCode.from_generator(ctx, rows, n=n)
        if (
            y.k == k
            and grassmann.grassmann_distance(x.space, y.space) == d
            and codes.strength(y) >= t
        ):
            return y


class ConstructWitnesses:
    """Seeded strength-t pairs at every distance 1..min(k, n-k); each pair
    gets one `geodesic_path(x, y, t)` and one `opposite_code(x, t)` call.

    A fixed number of pairs per (instance, distance) keeps a pass's cost
    nearly independent of the seed: the cost depends on the instance and
    the distance far more than on the codes drawn.
    """

    name = "construct-witnesses"

    def __init__(self, seed: int, instances=CONSTRUCT_INSTANCES):
        rng = random.Random(seed)
        self.pairs = []  # (t, d, x, y)
        for q, n, k, t, pairs in instances:
            ctx = gf.field_of_order(q)
            for d in range(1, min(k, n - k) + 1):
                for _ in range(pairs):
                    x = _random_code(ctx, n, k, t, rng)
                    self.pairs.append((t, d, x, _partner(ctx, x, d, t, rng)))

    def inputs(self):
        return [(t, d, _rows(x), _rows(y)) for t, d, x, y in self.pairs]

    def run_pass(self) -> tuple[list, list[float]]:
        thunks = []
        for t, _, x, y in self.pairs:
            thunks.append(
                lambda x=x, y=y, t=t: construct.geodesic_path(
                    codes.LinearCode(x.space), codes.LinearCode(y.space), t
                )
            )
            thunks.append(lambda x=x, t=t: construct.opposite_code(codes.LinearCode(x.space), t))
        return timed(thunks)

    def digest(self, out):
        if isinstance(out, Failed):
            return None
        if isinstance(out, list):
            return tuple(_rows(z) for z in out)
        return (_rows(out.code), out.witness.perm, out.witness.scalars, out.lam)

    def check(self, outputs) -> list[bool]:
        ok = []
        for i, out in enumerate(outputs):
            t, d, x, y = self.pairs[i // 2]
            if isinstance(out, Failed):
                ok.append(False)
                continue
            try:
                ok.append(_path_ok(out, x, y, t, d) if i % 2 == 0 else _opposite_ok(out, x, t))
            except GrassCodesError:  # a malformed output fails its check
                ok.append(False)
        return ok


def _path_ok(path, x, y, t, d) -> bool:
    """Length and steps re-derived by the rank route; every vertex in the class."""
    dist = grassmann.grassmann_distance
    return (
        path[0] == x
        and path[-1] == y
        and len(path) - 1 == d == dist(x.space, y.space)
        and all(dist(a.space, b.space) == 1 for a, b in zip(path, path[1:]))
        and all(codes.has_strength(z, t, "columns") for z in path)
    )


def _opposite_ok(res, x, t) -> bool:
    """At the full diameter, reproduced by its witness map, inside the class."""
    return (
        grassmann.grassmann_distance(x.space, res.code.space) == min(x.k, x.n - x.k)
        and codes.apply_monomial(res.witness, x) == res.code
        and codes.has_strength(res.code, t, "columns")
    )


# -- classify-codes -------------------------------------------------------------------

# (q, n, k) with q^(n-k) > 2^12 dual words, so `dual_min_distance` takes the
# bulk.min_weight_in_span route; at most 9^5 words keeps each call short.
RANDOM_SHAPES = ((5, 8, 2), (7, 8, 3), (8, 8, 3), (9, 8, 3), (7, 7, 2), (9, 7, 2), (8, 6, 1), (4, 8, 1))
BULK_DUAL_WORDS = 1 << 12


class ClassifyCodes:
    """Every subspace of GF(q)^n, q in {2, 3}, 2 <= n <= 5, decided by
    `has_strength` under all three criteria for every t in [1, n]; then
    `classify()` on seeded random codes whose duals are large.

    One operation is one (code, t) decision, or one `classify()` call.
    """

    name = "classify-codes"

    def __init__(self, seed: int, fields=(2, 3), max_n: int = 5,
                 shapes=RANDOM_SHAPES, codes_per_shape: int = 6):
        self.spaces = []
        self.groups = []  # (q, n, k, first space, end)
        for q in fields:
            ctx = gf.field_of_order(q)
            for n in range(2, max_n + 1):
                for k in range(0, n + 1):
                    index = grassmann.enumerate_subspaces(ctx, n, k)
                    start = len(self.spaces)
                    self.spaces += [index.subspace_at(i) for i in range(len(index))]
                    self.groups.append((q, n, k, start, len(self.spaces)))
        rng = random.Random(seed)
        self.randoms = []
        for q, n, k in shapes:
            if q ** (n - k) <= BULK_DUAL_WORDS:
                raise ValueError(f"({q}, {n}, {k}) dual is too small for the bulk route")
            ctx = gf.field_of_order(q)
            made = 0
            while made < codes_per_shape:
                rows = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
                space = linalg.Subspace.from_vectors(ctx, n, rows)
                if space.dim == k:
                    self.randoms.append(space)
                    made += 1

    def inputs(self):
        return [s.basis.rows for s in self.spaces + self.randoms]

    def run_pass(self) -> tuple[list, list[float]]:
        thunks = []
        for space in self.spaces:
            c = codes.LinearCode(space)  # shared by its t values, as a caller would
            for t in range(1, space.ambient_dim + 1):
                thunks.append(
                    lambda c=c, t=t: tuple(codes.has_strength(c, t, crit) for crit in codes.CRITERIA)
                )
        for space in self.randoms:
            thunks.append(lambda s=space: codes.classify(codes.LinearCode(s)))
        return timed(thunks)

    def digest(self, out):
        if isinstance(out, Failed):
            return None
        return tuple(sorted(out.items())) if isinstance(out, dict) else out

    def check(self, outputs) -> list[bool]:
        """The criteria agree on every decision; at t = 1 the count of
        members matches the closed form; classify()'s strength (column
        route) matches its dual distance (enumeration route)."""
        ok = []
        pos = 0
        for q, n, k, start, end in self.groups:
            members_t1 = 0
            first = len(ok)
            for _ in range(start, end):
                for t in range(1, n + 1):
                    out = outputs[pos]
                    pos += 1
                    good = not isinstance(out, Failed) and len(set(out)) == 1
                    ok.append(good)
                    if good and t == 1 and out[0]:
                        members_t1 += 1
            if members_t1 != nondegenerate_count(q, n, k):
                for i in range(first, len(ok), n):  # the group's t = 1 decisions
                    ok[i] = False
        for space, out in zip(self.randoms, outputs[pos:]):
            if isinstance(out, Failed):
                ok.append(False)
                continue
            dmd = out["dual_min_distance"]
            k = space.dim
            ok.append(out["strength"] == (k if dmd is None else min(dmd - 1, k)))
        return ok


WORKLOADS = {w.name: w for w in (SweepRef, ConstructWitnesses, ClassifyCodes)}
