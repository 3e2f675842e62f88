"""Verification sweeps over (q, n, k, t) parameter grids.

One GraphReport per instance: class size, connectivity and component
count, diameters of the induced subgraph and the full graph, isometry
with witnesses, resource caps hit, wall time.  Every instance runs the
same checks; each report field has one meaning.  Reports are emitted as
JSON lines (and a CSV summary) with a fixed key order, so two runs of
the same config are byte-identical except for the timing field.
Instances sharing (q, n, k) form one group that shares the enumeration,
the symmetry orbits and the full graph's diameter, checked from one BFS
source.  The induced subgraph is verified by BFS from one representative
per symmetry orbit (see grassmann), and only that representatives x V
distance block meets the pairs cap.  Groups run in order or, with
`workers` > 1, spread over at most min(workers, CPU count, number of
groups) processes.

An instance *violates the theorem* when its field is large enough
(q at least the number of codimension-t coordinate subspaces), nothing
was capped, the class is nonempty, and yet the induced subgraph is
disconnected, non-isometric, or of different diameter than the full
graph.  Violations drive the process exit code, not an exception: the
sweep is the measuring instrument, not the judge.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from math import comb, inf

from .errors import AllPairsTooLargeError, EnumerationTooLargeError, GrassCodesError
from .gf import field_of_order
from .grassmann import (
    ALL_PAIRS_CAP,
    ENUM_CAP,
    build_delta,
    diameter_and_connectivity,
    enumerate_subspaces,
    gamma_diameter,
    isometry_check,
)

REPORT_FIELDS = (
    "q",
    "n",
    "k",
    "t",
    "bound_satisfied",
    "class_size",
    "connected",
    "component_count",
    "diameter_delta",
    "diameter_gamma",
    "isometric",
    "witnesses",
    "caps_hit",
    "wall_ms",
)


@dataclass
class SweepConfig:
    q_list: list[int]
    n_list: list[int]
    k_list: list[int] | None = None  # None: every k in [1, n-1]
    t_list: list[int] | None = None  # None: every t in [1, k]
    max_vertices: int = ENUM_CAP
    max_pairs: int = ALL_PAIRS_CAP
    workers: int = 1

    def __post_init__(self):
        if not self.q_list or not self.n_list:
            raise ValueError("q and n ranges must be nonempty")
        if self.max_vertices <= 0 or self.max_pairs <= 0:
            raise ValueError("caps must be positive")
        if self.workers < 1:
            raise ValueError(f"workers must be at least 1, got {self.workers}")

    def instances(self) -> list[tuple[int, int, int, int]]:
        """Valid (q, n, k, t) combinations in deterministic config order."""
        out = []
        for q in self.q_list:
            field_of_order(q)  # raises early on a bad order
            for n in self.n_list:
                ks = self.k_list if self.k_list is not None else range(1, n)
                for k in ks:
                    if not 1 <= k <= n - 1:
                        continue
                    ts = self.t_list if self.t_list is not None else range(1, k + 1)
                    for t in ts:
                        if 1 <= t <= k:
                            out.append((q, n, k, t))
        if not out:
            raise ValueError("configuration yields no valid (q, n, k, t) instance")
        return out


def _empty_report(q, n, k, t) -> dict:
    return {
        "q": q,
        "n": n,
        "k": k,
        "t": t,
        "bound_satisfied": q >= comb(n, t),
        "class_size": None,
        "connected": None,
        "component_count": None,
        "diameter_delta": None,
        "diameter_gamma": None,
        "isometric": None,
        "witnesses": [],
        "caps_hit": [],
        "wall_ms": 0,
    }


def _diam_json(value):
    if value is None or value == inf:
        return None
    return int(value)


def _witness_json(graph, rep) -> list:
    out = []
    for i, j, d_sub, d_metric in rep.witnesses:
        out.append(
            {
                "x": [list(map(int, r)) for r in graph.subspace_at(i).basis.rows],
                "y": [list(map(int, r)) for r in graph.subspace_at(j).basis.rows],
                "d_subgraph": None if d_sub == inf else int(d_sub),
                "d_metric": int(d_metric),
            }
        )
    return out


class _InstanceCache:
    """Per-(q, n, k) artifacts shared across the t values of one group,
    keyed on the enumeration cap too, since it decides what was computed.
    A capped enumeration raises before it builds anything and is not kept."""

    def __init__(self):
        self.key = None
        self.index = None
        self.diameter_gamma = None

    def load(self, q, n, k, max_vertices):
        key = (q, n, k, max_vertices)
        if self.key != key:
            self.key = None
            self.index = enumerate_subspaces(field_of_order(q), n, k, max_count=max_vertices)
            self.diameter_gamma = gamma_diameter(self.index)
            self.key = key


def verify_instance(
    q: int,
    n: int,
    k: int,
    t: int,
    max_vertices: int = ENUM_CAP,
    max_pairs: int = ALL_PAIRS_CAP,
    cache: _InstanceCache | None = None,
) -> dict:
    """One GraphReport dict, schema-exact."""
    started = time.perf_counter()
    report = _empty_report(q, n, k, t)
    cache = cache or _InstanceCache()
    try:
        cache.load(q, n, k, max_vertices)
    except EnumerationTooLargeError:
        report["caps_hit"] = ["enumeration"]
        report["wall_ms"] = int((time.perf_counter() - started) * 1000)
        return report
    delta = build_delta(cache.index, t)
    report["class_size"] = delta.num_vertices
    report["diameter_gamma"] = cache.diameter_gamma
    try:
        summary = diameter_and_connectivity(delta, max_pairs=max_pairs)
        report["connected"] = summary.connected
        report["component_count"] = summary.component_count
        report["diameter_delta"] = _diam_json(summary.diameter)
        iso = isometry_check(delta, max_pairs=max_pairs)
        report["isometric"] = iso.isometric
        report["witnesses"] = _witness_json(delta, iso)
    except AllPairsTooLargeError:
        report["caps_hit"] = ["pairs"]

    report["wall_ms"] = int((time.perf_counter() - started) * 1000)
    return report


def is_violation(report: dict) -> bool:
    """Theorem violated on a bound-satisfied, uncapped, nonempty instance."""
    if not report["bound_satisfied"] or report["caps_hit"]:
        return False
    if not report["class_size"]:
        return False
    bad_connect = report["connected"] is False
    bad_iso = report["isometric"] is False
    bad_diam = (
        report["diameter_delta"] is not None
        and report["diameter_gamma"] is not None
        and report["diameter_delta"] != report["diameter_gamma"]
    )
    return bad_connect or bad_iso or bad_diam


def validate_report(report: dict) -> None:
    """Schema check: a dict with exact keys and JSON-compatible types."""
    if not isinstance(report, dict):
        raise GrassCodesError(f"report must be a JSON object, got {report!r}")
    if tuple(report.keys()) != REPORT_FIELDS:
        raise GrassCodesError(
            f"report keys {tuple(report.keys())} != schema {REPORT_FIELDS}"
        )
    for f in ("q", "n", "k", "t"):
        if not isinstance(report[f], int):
            raise GrassCodesError(f"{f} must be int")
    if not isinstance(report["bound_satisfied"], bool):
        raise GrassCodesError("bound_satisfied must be bool")
    for f in ("class_size", "component_count", "diameter_delta", "diameter_gamma"):
        if report[f] is not None and not isinstance(report[f], int):
            raise GrassCodesError(f"{f} must be int or null")
    for f in ("connected", "isometric"):
        if report[f] is not None and not isinstance(report[f], bool):
            raise GrassCodesError(f"{f} must be bool or null")
    if not isinstance(report["witnesses"], list) or not isinstance(
        report["caps_hit"], list
    ):
        raise GrassCodesError("witnesses and caps_hit must be lists")
    if not isinstance(report["wall_ms"], int):
        raise GrassCodesError("wall_ms must be int")


def report_json_line(report: dict) -> str:
    validate_report(report)
    return json.dumps(report, separators=(",", ":"))


CSV_FIELDS = REPORT_FIELDS[:11] + ("witness_count", "caps_hit", "wall_ms")


def report_csv_row(report: dict) -> str:
    def cell(v):
        if v is None:
            return ""
        if isinstance(v, bool):
            return "true" if v else "false"
        return str(v)

    vals = [cell(report[f]) for f in REPORT_FIELDS[:11]]
    vals.append(str(len(report["witnesses"])))
    vals.append(";".join(report["caps_hit"]))
    vals.append(str(report["wall_ms"]))
    return ",".join(vals)


def csv_header() -> str:
    return ",".join(CSV_FIELDS)


def _run_group(args) -> list[dict]:
    """Worker task: all t-instances of one (q, n, k) group (shared cache)."""
    q, n, k, ts, max_vertices, max_pairs = args
    cache = _InstanceCache()
    return [
        verify_instance(
            q, n, k, t,
            max_vertices=max_vertices,
            max_pairs=max_pairs,
            cache=cache,
        )
        for t in ts
    ]


def run_sweep(config: SweepConfig, skip: set | None = None):
    """Yield GraphReport dicts in config order; `skip` holds (q,n,k,t) keys
    already present in a resumed output file."""
    skip = skip or set()
    todo = [inst for inst in config.instances() if inst not in skip]
    groups: list[tuple] = []
    for q, n, k, t in todo:
        if groups and groups[-1][0][:3] == (q, n, k):
            groups[-1].append((q, n, k, t))
        else:
            groups.append([(q, n, k, t)])
    tasks = [
        (
            g[0][0], g[0][1], g[0][2], [inst[3] for inst in g],
            config.max_vertices, config.max_pairs,
        )
        for g in groups
    ]
    workers = min(config.workers, os.cpu_count() or 1, len(tasks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            for batch in pool.map(_run_group, tasks):
                yield from batch
    else:
        for task in tasks:
            yield from _run_group(task)
