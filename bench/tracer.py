"""Per-layer tracing for the benchmark, installed from outside the package.

The tracer wraps public grasscodes functions in spans.  Each wrapper is
rebound in every grasscodes module namespace that holds the original,
so calls between modules (`from .linalg import rref`) go through it too,
and `restore()` puts every original back.  Spans are aggregated in
memory by name: the hot scalar kernels run ~10^6 times per pass, so no
per-call record is kept.

A span's time is its *self* time: its duration minus the time of the
spans it caused.  The names are the per-layer metric names listed in
BENCHMARK.json.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from math import comb
from time import perf_counter

# Per-layer metric names, in the order BENCHMARK.json lists them.
SPANS = (
    "sweep.verify_instance_self_s",
    "grassmann.enumerate_s",
    "grassmann.strength_s",
    "grassmann.adjacency_s",
    "grassmann.bfs_gamma_s",
    "grassmann.bfs_delta_s",
    "grassmann.diameter_s",
    "grassmann.metric_s",
    "grassmann.compare_s",
    "bulk.batched_rref_s",
    "bulk.min_weight_s",
    "linalg.rref_s",
    "linalg.intersect_s",
    "linalg.hyperplanes_s",
    "codes.strength_s",
    "codes.has_strength_s",
    "codes.dual_min_distance_s",
    "construct.geodesic_path_s",
    "construct.step_toward_s",
    "construct.shrink_s",
    "construct.opposite_code_s",
)
# Inclusive times: the span's whole duration, children included.
TOTALS = ("grassmann.adjacency_incl_s",)
COUNTS = (
    "sweep.instances",
    "sweep.caps_hit",
    "grassmann.subspaces",
    "grassmann.delta_vertices",
    "grassmann.edges",
    "grassmann.pairs_checked",
    "bulk.batched_rref_calls",
    "bulk.batched_rref_matrices",
    "bulk.min_weight_calls",
    "linalg.rref_calls",
    "linalg.kernel_calls",
    "linalg.intersect_calls",
    "linalg.hyperplanes_yielded",
    "linalg.matrices_built",
    "codes.strength_calls",
)
# Counts that only feed a ratio (construct.step_yield).
RATIO_COUNTS = ("construct.steps_accepted", "construct.step_candidates")


class Tracer:
    """Self-time spans and counters over the grasscodes public API."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list[float]] = []  # child time of each open span
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------------

    def _span(self, name, fn, calls=None, hook=None, total=None):
        """Wrap fn in a span.  `name` may be a function of the call's
        arguments; `hook(result, args, kwargs)` updates counters after the
        span closes, off the clock; `total` names an inclusive time to add
        the span's whole duration to."""
        stack, self_s, counts = self._stack, self.self_s, self.counts

        def wrapper(*args, **kwargs):
            span = name(args) if callable(name) else name
            if calls is not None:
                counts[calls] += 1
            child = [0.0]
            stack.append(child)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                stack.pop()
                self_s[span] += dur - child[0]
                if total is not None:
                    self_s[total] += dur
                if stack:
                    stack[-1][0] += dur
            if hook is not None:
                self._off_clock(hook, result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _off_clock(self, fn, *args):
        """Run a counter update whose time is charged to no span."""
        start = perf_counter()
        fn(*args)
        if self._stack:
            self._stack[-1][0] += perf_counter() - start

    def _generator_span(self, name, fn, yielded):
        """Wrap a generator function: each resumption is one span, so the
        time the consumer spends between items is not charged to it."""
        stack, self_s, counts = self._stack, self.self_s, self.counts

        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            try:
                while True:
                    child = [0.0]
                    stack.append(child)
                    start = perf_counter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        dur = perf_counter() - start
                        stack.pop()
                        self_s[name] += dur - child[0]
                        if stack:
                            stack[-1][0] += dur
                    counts[yielded] += 1
                    yield item
            finally:
                gen.close()

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, calls, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[calls] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _counting_hook(self, fn, hook):
        """No span, only a counter update from the result."""

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self._off_clock(hook, result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- install / restore -------------------------------------------------------

    def _rebind(self, original, wrapper) -> None:
        """Point every grasscodes module attribute that is `original` at wrapper."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (
                mod_name == "grasscodes" or mod_name.startswith("grasscodes.")
            ):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _replace_method(self, cls, attr, make):
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, make(original))

    def install(self) -> None:
        """Wrap the public functions of sweep, grassmann, bulk, linalg,
        codes and construct.  Call restore() afterwards."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        from grasscodes import bulk, codes, construct, grassmann, linalg, sweep

        counts = self.counts
        scan = construct.scan_stats

        def add(key, amount):
            counts[key] += amount

        def on_report(report, args, kwargs):
            add("sweep.caps_hit", len(report["caps_hit"]))

        def on_index(index, args, kwargs):
            add("grassmann.subspaces", len(index))

        def on_delta(graph, args, kwargs):
            add("grassmann.delta_vertices", graph.num_vertices)

        def on_isometry(rep, args, kwargs):
            add("grassmann.pairs_checked", rep.checked_pairs)

        def on_batch(result, args, kwargs):
            add("bulk.batched_rref_matrices", len(args[1] if len(args) > 1 else kwargs["mats"]))

        def bfs_name(args):
            return "grassmann.bfs_gamma_s" if args[0].mode == "full" else "grassmann.bfs_delta_s"

        def adjacency(original):
            span = self._span("grassmann.adjacency_s", original,
                              total="grassmann.adjacency_incl_s")

            def wrapper(graph):
                fresh = graph._adjacency is None
                adj = span(graph)
                if fresh:
                    self._off_clock(lambda: add("grassmann.edges", int(adj.sum()) // 2))
                return adj

            wrapper.__wrapped__ = original
            return wrapper

        def step_toward(original):
            span = self._span("construct.step_toward_s", original)

            def wrapper(*args, **kwargs):
                x = args[0] if args else kwargs["x"]
                t = args[2] if len(args) > 2 else kwargs["t"]
                before = scan.meet_checks
                try:
                    cert = span(*args, **kwargs)
                finally:
                    add("construct.step_candidates", (scan.meet_checks - before) // comb(x.n, t))
                add("construct.steps_accepted", 1)
                return cert

            wrapper.__wrapped__ = original
            return wrapper

        try:
            functions = [
                (sweep.verify_instance, self._span(
                    "sweep.verify_instance_self_s", sweep.verify_instance,
                    calls="sweep.instances", hook=on_report)),
                (grassmann.enumerate_subspaces, self._span(
                    "grassmann.enumerate_s", grassmann.enumerate_subspaces, hook=on_index)),
                (grassmann.build_delta, self._counting_hook(grassmann.build_delta, on_delta)),
                (grassmann.all_pairs_distances, self._span(
                    bfs_name, grassmann.all_pairs_distances)),
                (grassmann.diameter_and_connectivity, self._span(
                    "grassmann.diameter_s", grassmann.diameter_and_connectivity)),
                (grassmann.metric_distance_matrix, self._span(
                    "grassmann.metric_s", grassmann.metric_distance_matrix)),
                (grassmann.isometry_check, self._span(
                    "grassmann.compare_s", grassmann.isometry_check, hook=on_isometry)),
                (bulk.batched_rref, self._span(
                    "bulk.batched_rref_s", bulk.batched_rref,
                    calls="bulk.batched_rref_calls", hook=on_batch)),
                (bulk.min_weight_in_span, self._span(
                    "bulk.min_weight_s", bulk.min_weight_in_span, calls="bulk.min_weight_calls")),
                (linalg.rref, self._span("linalg.rref_s", linalg.rref, calls="linalg.rref_calls")),
                (linalg.kernel, self._counter("linalg.kernel_calls", linalg.kernel)),
                (linalg.intersect, self._span(
                    "linalg.intersect_s", linalg.intersect, calls="linalg.intersect_calls")),
                (linalg.hyperplanes_containing, self._generator_span(
                    "linalg.hyperplanes_s", linalg.hyperplanes_containing,
                    "linalg.hyperplanes_yielded")),
                (codes.strength, self._span(
                    "codes.strength_s", codes.strength, calls="codes.strength_calls")),
                (codes.has_strength, self._span("codes.has_strength_s", codes.has_strength)),
                (codes.dual_min_distance, self._span(
                    "codes.dual_min_distance_s", codes.dual_min_distance)),
                (construct.geodesic_path, self._span(
                    "construct.geodesic_path_s", construct.geodesic_path)),
                (construct.step_toward, step_toward(construct.step_toward)),
                (construct.shrink, self._span("construct.shrink_s", construct.shrink)),
                (construct.opposite_code, self._span(
                    "construct.opposite_code_s", construct.opposite_code)),
            ]
            for original, wrapper in functions:
                self._rebind(original, wrapper)
            self._replace_method(grassmann.GrassmannGraph, "adjacency", adjacency)
            self._replace_method(grassmann.SubspaceIndex, "strength_all",
                                 lambda f: self._span("grassmann.strength_s", f))
            self._replace_method(linalg.MatrixGF, "__init__",
                                 lambda f: self._counter("linalg.matrices_built", f))
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        """Put back every original function, in reverse order of patching."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- results -----------------------------------------------------------------

    def snapshot(self) -> tuple[dict[str, float], dict[str, int]]:
        """(seconds per span name, counts), with every known name present."""
        times = {name: float(self.self_s.get(name, 0.0)) for name in SPANS + TOTALS}
        counts = {name: int(self.counts.get(name, 0)) for name in COUNTS + RATIO_COUNTS}
        return times, counts
