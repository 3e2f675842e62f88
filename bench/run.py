#!/usr/bin/env python3
"""The grasscodes benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout: it imports grasscodes from the
checkout's `src/` and exits with code 2, printing no result, when that is
missing.  Workloads are in workloads.py.  One run:

1. set-up: imports, field construction and input generation, timed here
   and in four fresh child processes (`--setup-only`); setup_s is the median;
2. untraced passes over the workload's operations, one client in a closed
   loop, until the next pass would end past --seconds (at least one pass);
3. with --trace 1, two more passes under the tracer (tracer.py), which
   must give the same outputs and the same counts as each other;
4. checks of the outputs, off the clock;
5. one JSON line: {"correct", "attempted", "failed", "metrics"}, the
   end-to-end metrics with --trace 0 and the per-layer ones with --trace 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 5
TRACED_PASSES = 2


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def quantile(values, q: int) -> float:
    """The q-th percentile, interpolated between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Pass:
    """One pass over the workload's operations.  Only the first pass keeps
    its outputs, for the checks; later ones keep only digests to compare
    with it."""

    def __init__(self, workload, tracer=None, keep_outputs=False):
        from grasscodes import construct
        from workloads import Failed

        scan = construct.scan_stats
        before = (scan.meet_checks, scan.meet_violations)
        if tracer is not None:
            tracer.install()
        try:
            start = perf_counter()
            outputs, self.latencies = workload.run_pass()
            self.wall_s = perf_counter() - start
        finally:
            if tracer is not None:
                tracer.restore()
        self.meet_checks = scan.meet_checks - before[0]
        self.meet_violations = scan.meet_violations - before[1]
        self.trace = tracer.snapshot() if tracer is not None else None
        self.digests = [workload.digest(out) for out in outputs]
        self.errors = {i: out.error for i, out in enumerate(outputs) if isinstance(out, Failed)}
        self.outputs = outputs if keep_outputs else None


def run_passes(workload, budget_s: float) -> list[Pass]:
    """Untraced passes until the next one would end past budget_s."""
    passes = [Pass(workload, keep_outputs=True)]
    while True:
        spent = sum(p.wall_s for p in passes)
        if spent + statistics.median(p.wall_s for p in passes) > budget_s:
            return passes
        passes.append(Pass(workload))


def count_failures(workload, passes: list[Pass]) -> tuple[int, int]:
    """(attempted, failed): an operation fails when it raised, when its
    output fails the workload's check, or when it differs from the same
    operation's output in the first pass."""
    first = passes[0]
    checks = workload.check(first.outputs)
    attempted = failed = 0
    for p in passes:
        for i, digest in enumerate(p.digests):
            attempted += 1
            if i in p.errors or not checks[i] or digest != first.digests[i]:
                failed += 1
                if failed <= 5:
                    print(f"failed operation {i}: {p.errors.get(i, digest)!r}"[:500],
                          file=sys.stderr)
    return attempted, failed


def setup_in_child(args) -> float:
    """Set-up time of a fresh interpreter: imports, fields and inputs."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed ({proc.returncode}): {proc.stderr.strip()}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def git_commit() -> str:
    """The checkout's commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    return loose.read_text().strip() if loose.is_file() else "unknown"


def environment(args) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "machine": platform.machine(),
        "processor": platform.processor() or "unknown",
        "platform": platform.platform(),
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(setups, passes: list[Pass]) -> dict:
    latencies_ms = [sec * 1000 for p in passes for sec in p.latencies]
    return {
        "setup_s": metric(statistics.median(setups), "s"),
        "wall_s": metric(statistics.median(p.wall_s for p in passes), "s"),
        "op_ms_p50": metric(quantile(latencies_ms, 50), "ms"),
        "op_ms_p95": metric(quantile(latencies_ms, 95), "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(untraced: list[Pass], traced: list[Pass]) -> tuple[dict, list[str]]:
    """Per-layer metrics from the traced passes, and the problems found:
    every count must repeat exactly across the traced passes, and the
    meet-check count must also match the untraced passes."""
    from tracer import COUNTS, SPANS, TOTALS

    problems = []
    counts = [p.trace[1] for p in traced]
    if any(c != counts[0] for c in counts):
        diff = {k: [c[k] for c in counts] for k in counts[0] if len({c[k] for c in counts}) > 1}
        problems.append(f"counts differ between traced passes: {diff}")
    meets = {(p.meet_checks, p.meet_violations) for p in untraced + traced}
    if len(meets) > 1:
        problems.append(f"meet-check counts differ between passes: {sorted(meets)}")

    out = {}
    for name in SPANS + TOTALS:
        out[name] = metric(statistics.median(p.trace[0][name] for p in traced), "s")
    for name in COUNTS:
        out[name] = metric(counts[0][name], "count")
    out["construct.meet_checks"] = metric(traced[0].meet_checks, "count")
    out["construct.meet_violations"] = metric(traced[0].meet_violations, "count")
    steps = counts[0]["construct.steps_accepted"]
    candidates = counts[0]["construct.step_candidates"]
    out["construct.step_yield"] = metric(steps / candidates if candidates else 0.0, "ratio")
    out["trace_overhead_s"] = metric(
        statistics.median(p.wall_s for p in traced)
        - statistics.median(p.wall_s for p in untraced), "s")
    return out, problems


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("sweep-ref", "construct-witnesses", "classify-codes"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="print only the set-up time of this process (used by set-up sampling)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "grasscodes" / "__init__.py").is_file():
        print(f"error: no grasscodes sources under {SRC}", file=sys.stderr)
        return 2
    # BLAS reads its thread count when numpy is first imported.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(nproc())
    sys.path.insert(0, str(SRC))

    start = perf_counter()
    import grasscodes
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = perf_counter() - start
    if Path(grasscodes.__file__).resolve().parent != SRC / "grasscodes":
        print(f"error: imported grasscodes from {grasscodes.__file__}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    print(json.dumps({"env": environment(args)}))
    if args.trace:
        untraced = run_passes(workload, args.seconds / 2)
        from tracer import Tracer

        traced = [Pass(workload, Tracer()) for _ in range(TRACED_PASSES)]
    else:
        setups = [setup_s] + [setup_in_child(args) for _ in range(SETUP_SAMPLES - 1)]
        untraced = run_passes(workload, args.seconds)
        traced = []

    attempted, failed = count_failures(workload, untraced + traced)
    problems = []
    if args.trace:
        metrics, problems = per_layer(untraced, traced)
    else:
        metrics = end_to_end(setups, untraced)
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    print(f"passes: {len(untraced)} untraced, {len(traced)} traced; "
          f"error rate {failed}/{attempted}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
