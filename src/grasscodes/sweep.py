"""Verification sweeps over (q, n, k, t) parameter grids.

One GraphReport per instance: class size, connectivity and component
count, diameters of the induced subgraph and the full graph, isometry
with witnesses, resource caps hit, wall time.  Every instance runs the
same checks; each report field has one meaning.  Reports are emitted as
JSON lines (and a CSV summary) with a fixed key order, so two runs of
the same config are byte-identical except for the timing field.
The unit of work is the (q, n, k) group, run by `verify_group`: one
enumeration and one check of the full graph's diameter, from one BFS
source, serve every t of the group, and their time is counted in the
group's first report's wall_ms.  The strength classes are nested, so
each is cut from the one of the next smaller t, the first from the full
graph, which is then released: the group's bucket numbering and orbit
keying are done once and restricted to every class (see
grassmann.build_delta).  Each t's induced subgraph is verified by BFS
from one representative per symmetry orbit, and only that
representatives x V distance block meets the pairs cap.
Groups run in order or, with `workers` > 1, spread over at most
min(workers, CPU count, number of groups) processes.

An instance *violates the theorem* when its field is large enough
(q at least the number of codimension-t coordinate subspaces), nothing
was capped, the class is nonempty, and yet the induced subgraph is
disconnected, non-isometric, or of different diameter than the full
graph.  Violations drive the process exit code, not an exception: the
sweep is the measuring instrument, not the judge.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from dataclasses import dataclass
from math import comb, inf
from pathlib import Path

from .errors import (
    AllPairsTooLargeError,
    EnumerationTooLargeError,
    GrassCodesError,
    InternalInvariantError,
)
from .gf import field_of_order
from .grassmann import (
    ALL_PAIRS_CAP,
    ENUM_CAP,
    GrassmannGraph,
    build_delta,
    diameter_and_connectivity,
    enumerate_subspaces,
    gamma_diameter,
    isometry_check,
)
from .linalg import class_count

# The report schema: the JSON Schema document shipped with the package.
# Key order (its `required` list), the defaults, validation and the CSV
# columns are all read from it.
SCHEMA = json.loads(Path(__file__).with_name("report_schema.json").read_text())
REPORT_FIELDS = tuple(SCHEMA["required"])
_PY_TYPES = {
    "integer": int,
    "boolean": bool,
    "null": type(None),
    "array": list,
    "object": dict,
    "string": str,
}


def _types(node: dict) -> list[str]:
    """A schema node's JSON types: its `type`, a string or a list."""
    kinds = node["type"]
    return [kinds] if isinstance(kinds, str) else kinds


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
        self.instances()

    def instances(self) -> list[tuple[int, int, int, int]]:
        """Valid (q, n, k, t) combinations in config order, each listed
        once, where it first appears."""
        out = []
        for q in self.q_list:
            field_of_order(q).np_tables()  # a bad order, or q > 256 for uint8 bases
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
        return list(dict.fromkeys(out))


# each field's value before it is measured: null, an empty list or 0 ms
_UNMEASURED = {
    name: None if "null" in types else [] if "array" in types else 0
    for name in REPORT_FIELDS
    for types in [_types(SCHEMA["properties"][name])]
}


def _empty_report(q, n, k, t) -> dict:
    """A report with nothing measured yet, each list its own."""
    report = {name: [] if value == [] else value for name, value in _UNMEASURED.items()}
    report.update(q=q, n=n, k=k, t=t, bound_satisfied=q >= comb(n, t))
    return report


def _diam_json(value):
    if value is None or value == inf:
        return None
    return int(value)


def _witness_json(graph, rep) -> list:
    """The witnesses as report objects, their endpoints' RREF bases read in
    one (W, 2, k, n) gather of the graph's rows."""
    ends = [(i, j) for i, j, _, _ in rep.witnesses]
    bases = graph.bases[ends].tolist()
    return [
        {
            "x": x,
            "y": y,
            "d_subgraph": None if d_sub == inf else int(d_sub),
            "d_metric": int(d_metric),
        }
        for (x, y), (_, _, d_sub, d_metric) in zip(bases, rep.witnesses)
    ]


def _ms_since(started: float) -> int:
    return int((time.perf_counter() - started) * 1000)


def verify_instance(delta: GrassmannGraph, diameter_gamma: int, max_pairs: int) -> dict:
    """The GraphReport dict, schema-exact, of the strength-t class `delta`
    (t = delta.t, see build_delta) of a (q, n, k) whose full graph has
    diameter diameter_gamma.

    Where `linalg.class_count` has a closed form (t <= 2, and t = k when
    n - k <= 2 or (n, k) = (6, 3)), the class size is checked against it;
    a mismatch means the engine is broken.  Every class is also checked
    for closure under the symmetries, by `GrassmannGraph.orbit_labels`,
    or by build_delta when the class is cut from one whose orbits are
    keyed; for the other t >= 3 that is the one run-time check."""
    started = time.perf_counter()
    t = delta.t
    report = _empty_report(delta.ctx.q, delta.n, delta.k, t)
    expect = class_count(delta.n, delta.k, t, delta.ctx.q)
    if expect is not None and delta.num_vertices != expect:
        raise InternalInvariantError(
            f"strength-{t} class of {delta.num_vertices} codes != closed form {expect}"
        )
    report["class_size"] = delta.num_vertices
    report["diameter_gamma"] = diameter_gamma
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
    report["wall_ms"] = _ms_since(started)
    return report


def verify_group(
    q: int, n: int, k: int, ts: list[int], max_vertices: int, max_pairs: int
) -> list[dict]:
    """The reports of the (q, n, k, t) instances for each t in ts, in order.

    The group is enumerated once and the full graph's diameter checked
    once; both count in the first report's wall_ms.  The classes are
    nested, so they are cut smallest t first, each from the one before it
    and the first from the full graph, which is then let go: the bucket
    numbering and the orbit keying of the first class serve every later
    one (see build_delta).  A report's wall_ms counts its cut.  When the
    enumeration exceeds max_vertices, every t reports caps_hit
    ["enumeration"]."""
    started = time.perf_counter()
    try:
        graph = enumerate_subspaces(field_of_order(q), n, k, max_count=max_vertices)
    except EnumerationTooLargeError:
        reports = [_empty_report(q, n, k, t) | {"caps_hit": ["enumeration"]} for t in ts]
        reports[0]["wall_ms"] = _ms_since(started)
        return reports
    diameter_gamma = gamma_diameter(graph)
    setup_ms = _ms_since(started)
    reports = [None] * len(ts)
    for i in sorted(range(len(ts)), key=ts.__getitem__):
        cut = time.perf_counter()
        graph = build_delta(graph, ts[i])
        reports[i] = verify_instance(graph, diameter_gamma, max_pairs)
        reports[i]["wall_ms"] = _ms_since(cut)
    reports[0]["wall_ms"] += setup_ms
    return reports


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


def _compile(node: dict):
    """The checker of a schema node: value -> where and how it breaks the
    node, or None.  The node's keywords read are type (a bool never counts
    as an integer), enum, minimum, maxItems, items, and required/properties
    in key order; they are read here, once, into the closure, along with
    the checkers of the node's items and properties."""
    types = _types(node)
    allowed = frozenset(_PY_TYPES[kind] for kind in types)
    spelled = " or ".join(types)
    enum = tuple(node["enum"]) if "enum" in node else None
    minimum = node.get("minimum")
    max_items = node.get("maxItems")
    items = node.get("items")
    item_check = _compile(items) if items is not None else None
    # the item types that pass unchecked: all of them when the items have
    # nothing but a type, so that the whole array is checked in one pass
    leaf = items is not None and items.keys() == {"type"}
    fine = frozenset(_PY_TYPES[kind] for kind in _types(items)) if leaf else None
    names = tuple(node["required"]) if "properties" in node else None
    fields = [(name, _compile(node["properties"][name])) for name in names or ()]

    def check(value):
        if type(value) not in allowed:
            return f" must be {spelled}, got {value!r}"
        if enum is not None and value not in enum:
            return f" must be one of {enum}, got {value!r}"
        if value is None:
            return None
        if minimum is not None and value < minimum:
            return f" breaks minimum {minimum}"
        if max_items is not None and len(value) > max_items:
            return f" breaks maxItems {max_items}"
        if item_check is not None and not (leaf and fine.issuperset(map(type, value))):
            for i, item in enumerate(value):
                problem = item_check(item)
                if problem:
                    return f"[{i}]{problem}"
        if names is not None:
            if tuple(value) != names:
                return f" keys {tuple(value)} != schema {names}"
            for name, field in fields:
                problem = field(value[name])
                if problem:
                    return f".{name}{problem}"
        return None

    return check


_check_report = _compile(SCHEMA)


def validate_report(report: dict) -> None:
    """Check a report against SCHEMA: the exact keys in order, each value
    of an allowed JSON type within its limits, every witness an object of
    the witness fields and every cap an allowed tag."""
    problem = _check_report(report)
    if problem:
        raise GrassCodesError(f"report{problem}")


def report_json_line(report: dict) -> str:
    validate_report(report)
    return json.dumps(report, separators=(",", ":"))


CSV_FIELDS = tuple("witness_count" if f == "witnesses" else f for f in REPORT_FIELDS)


def _csv_cell(value, node: dict) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):  # tags are spelled out, other arrays counted
        return ";".join(value) if "enum" in node["items"] else str(len(value))
    return str(value)


def report_csv_row(report: dict) -> str:
    fields = SCHEMA["properties"]
    return ",".join(_csv_cell(report[name], fields[name]) for name in REPORT_FIELDS)


def csv_header() -> str:
    return ",".join(CSV_FIELDS)


def run_sweep(config: SweepConfig, skip: set | None = None):
    """Yield GraphReport dicts in config order; `skip` holds (q,n,k,t) keys
    already present in a resumed output file."""
    skip = skip or set()
    todo = [inst for inst in config.instances() if inst not in skip]
    groups = [
        (q, n, k, [inst[3] for inst in group], config.max_vertices, config.max_pairs)
        for (q, n, k), group in itertools.groupby(todo, key=lambda inst: inst[:3])
    ]
    workers = min(config.workers, os.cpu_count() or 1, len(groups))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            for reports in pool.map(verify_group, *zip(*groups)):
                yield from reports
    else:
        for group in groups:
            yield from verify_group(*group)
