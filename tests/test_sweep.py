import json
import os
import pathlib
import re
from importlib.resources import files

import pytest

from conftest import index_of, isometry_all_pairs, schema_problem, subgraph
from grasscodes import grassmann, sweep
from grasscodes.errors import GrassCodesError, InternalInvariantError, NotPrimeError
from grasscodes.gf import field_of_order
from grasscodes.grassmann import (
    ALL_PAIRS_CAP,
    ENUM_CAP,
    enumerate_subspaces,
    isometry_check,
)
from grasscodes.linalg import Subspace, subspace_count
from grasscodes.sweep import (
    CSV_FIELDS,
    REPORT_FIELDS,
    SCHEMA,
    SweepConfig,
    _witness_json,
    csv_header,
    is_violation,
    report_csv_row,
    report_json_line,
    run_sweep,
    validate_report,
    verify_group,
)


def verify_one(q, n, k, t, max_vertices=ENUM_CAP, max_pairs=ALL_PAIRS_CAP):
    """The report of one (q, n, k, t) instance, run as a group of one t."""
    [report] = verify_group(q, n, k, [t], max_vertices, max_pairs)
    return report


def test_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(q_list=[], n_list=[3])
    with pytest.raises(ValueError):
        SweepConfig(q_list=[2], n_list=[3], max_pairs=0)
    with pytest.raises(ValueError):
        SweepConfig(q_list=[2], n_list=[3], workers=0)


def test_instances_filter_invalid_combos():
    cfg = SweepConfig(q_list=[2], n_list=[3], k_list=[1, 2, 3, 7], t_list=[1, 2, 3])
    inst = cfg.instances()
    # k=3 (= n) and k=7 dropped; t bounded by k
    assert inst == [(2, 3, 1, 1), (2, 3, 2, 1), (2, 3, 2, 2)]
    with pytest.raises(ValueError):
        SweepConfig(q_list=[2], n_list=[2], k_list=[5]).instances()
    with pytest.raises(NotPrimeError):
        SweepConfig(q_list=[6], n_list=[3]).instances()  # 6 not a prime power


def test_instances_listed_once_in_first_seen_order():
    cfg = SweepConfig(q_list=[3, 2, 3], n_list=[3, 3], k_list=[2, 1, 2], t_list=[1, 1])
    assert cfg.instances() == [(3, 3, 2, 1), (3, 3, 1, 1), (2, 3, 2, 1), (2, 3, 1, 1)]


def test_verify_instance_bound_satisfied():
    rep = verify_one(5, 4, 2, 1)
    validate_report(rep)
    assert rep["bound_satisfied"] is True  # 5 >= C(4,1) = 4
    assert rep["connected"] is True
    assert rep["isometric"] is True
    assert rep["diameter_delta"] == rep["diameter_gamma"] == 2
    assert rep["witnesses"] == [] and rep["caps_hit"] == []
    assert not is_violation(rep)


def test_verify_instance_empty_class():
    rep = verify_one(2, 4, 2, 2)  # no MDS [4,2] over GF(2)
    validate_report(rep)
    assert rep["class_size"] == 0
    assert rep["connected"] is True and rep["isometric"] is True
    assert rep["diameter_delta"] is None
    assert rep["component_count"] == 0
    assert not is_violation(rep)


def test_verify_instance_known_gap():
    """q = 2, n = 2: the strength-1 class is a single vertex, so the
    induced diameter 0 differs from the full graph's 1 even though the
    color bound holds; the report must flag it as a violation."""
    rep = verify_one(2, 2, 1, 1)
    validate_report(rep)
    assert rep["bound_satisfied"] is True
    assert rep["class_size"] == 1
    assert rep["diameter_delta"] == 0 and rep["diameter_gamma"] == 1
    assert is_violation(rep)
    # one field up it is fine
    rep3 = verify_one(3, 2, 1, 1)
    assert not is_violation(rep3)


def test_class_size_checked_against_closed_form(monkeypatch):
    """A class whose size differs from linalg.class_count stops the
    instance as an engine fault, at t <= 2 and at t = k with n - k <= 2;
    (2,6,4,3) has no closed form to check."""
    real = sweep.class_count

    def off_by_one(n, k, t, q):
        count = real(n, k, t, q)
        return None if count is None else count + 1

    monkeypatch.setattr(sweep, "class_count", off_by_one)
    for instance in ((3, 4, 2, 1), (5, 4, 2, 2), (3, 4, 3, 3)):
        with pytest.raises(InternalInvariantError, match="closed form"):
            verify_one(*instance)
    assert real(4, 3, 3, 3) == 8  # duals of the 8 weight-4 points
    assert verify_one(2, 6, 4, 3)["class_size"] == 15


def test_orbits_keyed_per_class(monkeypatch):
    """verify_group keys symmetry orbits once per group, on the small bases
    of the class of its smallest t, whatever the order of ts, and never on
    the full graph's V rows: Γ's check is one BFS from one source, and
    every larger t's class is cut with the labels (see build_delta)."""
    rows = []
    original = grassmann._orbit_labels

    def recorded(ctx, bases):
        rows.append(len(bases))
        return original(ctx, bases)

    monkeypatch.setattr(grassmann, "_orbit_labels", recorded)
    for ts in ([1, 2], [2, 1]):
        rows.clear()
        reports = verify_group(3, 4, 2, ts, ENUM_CAP, ALL_PAIRS_CAP)
        sizes = {r["t"]: r["class_size"] for r in reports}
        assert [r["t"] for r in reports] == ts
        assert min(sizes.values()) >= 2 and rows == [sizes[1]]
    assert subspace_count(4, 2, 3) not in rows


def test_caps_enumeration():
    rep = verify_one(2, 4, 2, 1, max_vertices=10)
    validate_report(rep)
    assert rep["caps_hit"] == ["enumeration"]
    assert rep["class_size"] is None
    assert not is_violation(rep)


def test_caps_pairs():
    """The pairs cap applies to the induced subgraph alone; the full
    graph's diameter comes from one BFS source and is still reported."""
    rep = verify_one(2, 4, 2, 1, max_pairs=5)
    validate_report(rep)
    assert rep["caps_hit"] == ["pairs"]
    assert rep["connected"] is None
    assert rep["diameter_gamma"] == 2
    assert not is_violation(rep)


def test_run_sweep_enumerates_each_group_once(monkeypatch):
    """Each (q, n, k) group is enumerated once and its full graph checked
    once, for all its t.  (3,4,2) has 130 subspaces, over the cap of 100,
    so each of its t reports the enumeration cap and its full graph is
    never checked; without the cap it gives the recorded lines."""
    enumerated, checked = [], []

    def enumerate_recording(ctx, n, k, max_count):
        enumerated.append((ctx.q, n, k))
        return enumerate_subspaces(ctx, n, k, max_count=max_count)

    def gamma_recording(index):
        checked.append((index.ctx.q, index.n, index.k))
        return grassmann.gamma_diameter(index)

    monkeypatch.setattr(sweep, "enumerate_subspaces", enumerate_recording)
    monkeypatch.setattr(sweep, "gamma_diameter", gamma_recording)
    reports = list(run_sweep(SweepConfig(q_list=[2, 3], n_list=[4], max_vertices=100)))
    groups = [(q, 4, k) for q in (2, 3) for k in (1, 2, 3)]
    assert enumerated == groups
    assert checked == [g for g in groups if g != (3, 4, 2)]
    capped = [r for r in reports if r["caps_hit"]]
    assert [(r["q"], r["n"], r["k"], r["t"]) for r in capped] == [(3, 4, 2, 1), (3, 4, 2, 2)]
    assert all(r["caps_hit"] == ["enumeration"] and r["class_size"] is None for r in capped)
    rerun = [
        re.sub(r',"wall_ms":\d+\}$', "}", report_json_line(r))
        for r in run_sweep(SweepConfig(q_list=[3], n_list=[4], k_list=[2]))
    ]
    recorded = [
        line for line in GOLDEN.read_text().splitlines()
        if line.startswith('{"q":3,"n":4,"k":2,')
    ]
    assert len(recorded) == 2 and rerun == recorded


def test_witness_json_on_non_isometric_subgraph():
    """A hand-built vertex subset of the (2,4,2) graph: the path
    P2 - P1 - P0 - P3 joins P0 and P3 (metric 2) only at length 3, and S
    meets none of them, so every pair with S is disconnected.  The set is
    not closed under the symmetries, so the per-orbit isometry_check
    refuses it and the all-pairs oracle gives the witnesses."""
    ctx = field_of_order(2)
    idx = enumerate_subspaces(ctx, 4, 2)
    rows = {
        "P0": [[1, 0, 0, 0], [0, 1, 0, 0]],
        "P1": [[1, 0, 0, 0], [0, 0, 1, 0]],
        "P2": [[0, 0, 1, 0], [0, 0, 0, 1]],
        "P3": [[1, 1, 1, 0], [0, 0, 0, 1]],
        "S": [[1, 0, 1, 1], [0, 1, 1, 0]],
    }
    ids = sorted(index_of(idx, Subspace.from_vectors(ctx, 4, r)) for r in rows.values())
    graph = subgraph(idx, ids)
    with pytest.raises(InternalInvariantError):
        isometry_check(graph)
    iso = isometry_all_pairs(graph)
    assert not iso.isometric
    # positions in canonical order: P2, P1, P0, S, P3; witnesses row-major
    expected = [
        ("P2", "S", None), ("P1", "S", None), ("P0", "S", None),
        ("P0", "P3", 3), ("S", "P3", None),
    ]
    witnesses = _witness_json(graph, iso)
    assert witnesses == [
        {"x": rows[a], "y": rows[b], "d_subgraph": d, "d_metric": 2}
        for a, b, d in expected
    ]
    report = verify_one(2, 4, 2, 1)
    report["isometric"] = False
    report["witnesses"] = witnesses
    assert json.loads(report_json_line(report))["witnesses"] == witnesses


def test_report_json_key_order_and_determinism():
    a = verify_one(3, 4, 2, 1)
    b = verify_one(3, 4, 2, 1)
    line_a = report_json_line(a)
    line_b = report_json_line(b)
    assert list(json.loads(line_a).keys()) == list(REPORT_FIELDS)
    da, db = json.loads(line_a), json.loads(line_b)
    da.pop("wall_ms"), db.pop("wall_ms")
    assert da == db


def test_csv_shapes():
    rep = verify_one(3, 3, 2, 1)
    header = csv_header()
    row = report_csv_row(rep)
    assert len(header.split(",")) == len(row.split(",")) == len(CSV_FIELDS)
    assert header.split(",")[0] == "q"
    assert row.split(",")[0] == "3"


def test_run_sweep_order_and_skip():
    cfg = SweepConfig(q_list=[2, 3], n_list=[3], t_list=[1])
    reports = list(run_sweep(cfg))
    keys = [(r["q"], r["n"], r["k"], r["t"]) for r in reports]
    assert keys == [(2, 3, 1, 1), (2, 3, 2, 1), (3, 3, 1, 1), (3, 3, 2, 1)]
    partial = list(run_sweep(cfg, skip={(2, 3, 1, 1), (3, 3, 2, 1)}))
    assert [(r["q"], r["n"], r["k"], r["t"]) for r in partial] == [
        (2, 3, 2, 1),
        (3, 3, 1, 1),
    ]


def test_run_sweep_workers_agree():
    cfg1 = SweepConfig(q_list=[2, 3], n_list=[3, 4], t_list=[1])
    cfg2 = SweepConfig(q_list=[2, 3], n_list=[3, 4], t_list=[1], workers=2)
    seq = list(run_sweep(cfg1))
    par = list(run_sweep(cfg2))
    for r in seq + par:
        r.pop("wall_ms")
    assert seq == par


def test_shipped_schema_matches_report_fields():
    """The packaged report_schema.json is the one schema: SCHEMA is that
    file, parsed, the report's key order is its `required` list, each
    object lists exactly its required keys, its witness cap is the
    engine's, and each golden line (with its timing field put back)
    passes the check."""
    packaged = files("grasscodes").joinpath("report_schema.json").read_text()
    assert SCHEMA == json.loads(packaged)
    assert REPORT_FIELDS == tuple(SCHEMA["required"])
    witnesses = SCHEMA["properties"]["witnesses"]
    assert witnesses["maxItems"] == grassmann._WITNESS_CAP
    for node in (SCHEMA, witnesses["items"]):  # objects: the required keys, nothing else
        assert list(node["properties"]) == node["required"]
        assert node["additionalProperties"] is False
    validate_report(verify_one(3, 3, 2, 1))
    witnessed = 0
    for line in GOLDEN.read_text().splitlines():
        rec = json.loads(line)
        rec["wall_ms"] = 0
        validate_report(rec)
        witnessed += len(rec["witnesses"])
    assert witnessed > 0


@pytest.mark.parametrize("witness", [
    5,
    {"x": [[1, 0, 1]], "y": [[0, 1, 1]], "d_subgraph": 2},
    {"x": [[1, 0, 1]], "y": [[0, 1, 1]], "d_metric": 2, "d_subgraph": 2},
    {"x": [1, 0, 1], "y": [[0, 1, 1]], "d_subgraph": 2, "d_metric": 2},
    {"x": [[1, 0, 1]], "y": [[0, 1, 1]], "d_subgraph": 2, "d_metric": None},
    {"x": [[1, 0, 1]], "y": [[0, 1, True]], "d_subgraph": None, "d_metric": 2},
])
def test_validate_report_checks_witness_items(witness):
    """Each witness is the schema's {x, y, d_subgraph, d_metric} object:
    keys in order, bases as lists of integer rows, d_metric an integer."""
    report = verify_one(3, 3, 1, 1)
    report["witnesses"] = [witness]
    with pytest.raises(GrassCodesError, match=r"witnesses\[0\]"):
        validate_report(report)


def _witnessed_golden_report() -> dict:
    """The first golden report with witnesses, its timing field put back."""
    for line in GOLDEN.read_text().splitlines():
        report = json.loads(line)
        if report["witnesses"]:
            return report | {"wall_ms": 3}
    raise AssertionError("no golden report has witnesses")


def _reordered(obj: dict, first: str) -> dict:
    return {first: obj[first]} | {key: value for key, value in obj.items() if key != first}


def _without(obj: dict, name: str) -> dict:
    return {key: value for key, value in obj.items() if key != name}


MALFORMED = {
    "valid": lambda r: r,
    "bool for int": lambda r: r | {"class_size": True},
    "int for bool": lambda r: r | {"connected": 1},
    "int for bool, first field": lambda r: r | {"bound_satisfied": 0},
    "null for int": lambda r: r | {"q": None},
    "cap outside the enum": lambda r: r | {"caps_hit": ["pairs", "memory"]},
    "cap not a string": lambda r: r | {"caps_hit": [5]},
    "negative class size": lambda r: r | {"class_size": -1},
    "101 witnesses": lambda r: r | {"witnesses": r["witnesses"][:1] * 101},
    "witnesses not an array": lambda r: r | {"witnesses": {}},
    "missing key": lambda r: _without(r, "t"),
    "extra key": lambda r: r | {"extra": 0},
    "reordered keys": lambda r: _reordered(r, "n"),
    "witness not an object": lambda r: r | {"witnesses": [*r["witnesses"][:2], 5]},
    "witness missing key": lambda r: r | {"witnesses": [_without(r["witnesses"][0], "d_metric")]},
    "witness extra key": lambda r: r | {"witnesses": [r["witnesses"][0] | {"z": []}]},
    "witness reordered keys": lambda r: r | {"witnesses": [_reordered(r["witnesses"][0], "y")]},
    "float in x": lambda r: r | {"witnesses": [r["witnesses"][0] | {"x": [[1, 0.5]]}]},
    "bool in y": lambda r: r | {"witnesses": [r["witnesses"][0] | {"y": [[0, 1], [1, True]]}]},
    "string in x": lambda r: r | {"witnesses": [r["witnesses"][0] | {"x": [[1, 0], ["1", 0]]}]},
    "flat x": lambda r: r | {"witnesses": [r["witnesses"][0] | {"x": [1, 0]}]},
    "zero d_metric": lambda r: r | {
        "witnesses": [*r["witnesses"][:3], r["witnesses"][3] | {"d_metric": 0}]
    },
    "null d_metric": lambda r: r | {"witnesses": [r["witnesses"][0] | {"d_metric": None}]},
    "zero d_subgraph": lambda r: r | {"witnesses": [r["witnesses"][0] | {"d_subgraph": 0}]},
}


@pytest.mark.parametrize("case", MALFORMED)
def test_compiled_validator_matches_interpreter(case):
    """The compiled report checker gives, word for word, the message of the
    schema interpreter it replaced (conftest.schema_problem), on a
    witnessed golden report broken one way at a time, and None on the
    report itself."""
    report = MALFORMED[case](_witnessed_golden_report())
    want = schema_problem(report, SCHEMA)
    assert (want is None) == (case == "valid")
    assert sweep._check_report(report) == want
    if want is None:
        validate_report(report)
    else:
        with pytest.raises(GrassCodesError) as raised:
            validate_report(report)
        assert str(raised.value) == f"report{want}"


def test_golden_lines_round_trip():
    """Every golden line, its timing field put back, passes validate_report,
    and report_json_line writes it back byte for byte."""
    lines = GOLDEN.read_text().splitlines()
    assert lines
    for line in lines:
        report = json.loads(line) | {"wall_ms": 12}
        validate_report(report)
        assert report_json_line(report) == line[:-1] + ',"wall_ms":12}'


def test_full_graph_gets_no_all_pairs_pass(monkeypatch):
    """No BFS starts from every vertex: the full graph is checked from one
    source, and each induced subgraph from one representative per symmetry
    orbit (84 vertices in 4 orbits at t = 1, 8 vertices in one at t = 2).
    The all-pairs oracle is never called."""
    original = grassmann._bfs
    calls = []

    def recording(buckets, sources):
        calls.append((buckets.inc.shape[0], sources.size))
        return original(buckets, sources)

    def refuse(*args, **kwargs):
        raise AssertionError("all-pairs BFS on the sweep route")

    monkeypatch.setattr(grassmann, "_bfs", recording)
    monkeypatch.setattr(grassmann, "all_pairs_distances", refuse)
    reports = verify_group(3, 4, 2, [1, 2], ENUM_CAP, ALL_PAIRS_CAP)
    assert [r["diameter_gamma"] for r in reports] == [2, 2]
    assert [r["isometric"] for r in reports] == [True, True]
    assert calls == [(subspace_count(4, 2, 3), 1), (84, 4), (8, 1)]


def test_run_sweep_clamps_workers(monkeypatch):
    """The pool gets min(workers, CPU count, groups) processes, and none
    when that is 1.  A recording stand-in replaces the process pool, so
    no process is started."""
    import concurrent.futures

    created = []

    class RecordingPool:
        def __init__(self, max_workers):
            created.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    four_groups = SweepConfig(q_list=[2, 3], n_list=[3], t_list=[1], workers=64)
    serial = list(run_sweep(SweepConfig(q_list=[2, 3], n_list=[3], t_list=[1])))
    assert created == []

    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    pooled = list(run_sweep(four_groups))
    assert created == [3]  # CPU count binds
    list(run_sweep(SweepConfig(q_list=[2], n_list=[3], t_list=[1], workers=64)))
    assert created == [3, 2]  # two (q, n, k) groups bind

    monkeypatch.setattr(os, "cpu_count", lambda: None)
    list(run_sweep(four_groups))
    assert created == [3, 2]  # unknown CPU count: serial

    for r in serial + pooled:
        r.pop("wall_ms")
    assert pooled == serial


GOLDEN = pathlib.Path(__file__).parent / "data" / "sweep_golden.jsonl"


def test_sweep_matches_golden():
    """Report lines are byte-identical, apart from wall_ms, to the shipped
    output of `sweep --q 2,3,4,5,7 --n 2-4`, `sweep --q 2 --n 6 --k 3` and
    the benchmark's groups (9,4,2), (4,5,2) and (2,5,2).  The grid holds
    the known single-vertex gap (2,2,1,1), empty classes, (2,6,3,t),
    recorded when its metric came from stacked ranks, and (4,5,2,2), whose
    class is connected but not isometric (its first 100 witnesses)."""
    configs = [
        SweepConfig(q_list=[2, 3, 4, 5, 7], n_list=[2, 3, 4]),
        SweepConfig(q_list=[2], n_list=[6], k_list=[3]),
        *(
            SweepConfig(q_list=[q], n_list=[n], k_list=[k])
            for q, n, k in ((9, 4, 2), (4, 5, 2), (2, 5, 2))
        ),
    ]
    lines = [
        re.sub(r',"wall_ms":\d+\}$', "}", report_json_line(r))
        for cfg in configs
        for r in run_sweep(cfg)
    ]
    assert lines == GOLDEN.read_text().splitlines()


def test_benchmark_expected_lines_match_golden():
    """Every line the benchmark checks its sweep-ref passes against
    (bench/sweep_expected.jsonl, read only) is the golden line of the same
    (q, n, k, t), apart from wall_ms: a golden update that left the
    benchmark's lines behind would fail every sweep-ref check."""
    expected = pathlib.Path(__file__).parents[1] / "bench" / "sweep_expected.jsonl"

    def keyed(path):
        lines = path.read_text().splitlines()
        lines = [re.sub(r',"wall_ms":\d+\}$', "}", line) for line in lines]
        return {tuple(json.loads(line)[f] for f in "qnkt"): line for line in lines}

    bench, golden = keyed(expected), keyed(GOLDEN)
    assert len(bench) == 11
    assert all(golden.get(key) == line for key, line in bench.items())


def test_golden_mds_classes_agree_in_dual_pairs():
    """At t = k the class is the MDS codes, and annihilation maps it onto
    the MDS class of (q, n, n-k) keeping every distance, so the golden
    t = k lines of every dual pair (q,n,k)/(q,n,n-k) with k != n-k agree
    on size, connectivity, components, diameter, isometry, caps and the
    number of witnesses.  Both sides key the same codes when 2k > n (the
    reversed annihilators), so this checks the report path, not the
    engine."""
    fields = "class_size connected component_count diameter_delta isometric caps_hit".split()
    lines = [json.loads(line) for line in GOLDEN.read_text().splitlines()]
    mds = {(r["q"], r["n"], r["k"]): r for r in lines if r["t"] == r["k"]}
    duals = [(r, mds.get((q, n, n - k))) for (q, n, k), r in mds.items() if k < n - k]
    pairs = [(a, b) for a, b in duals if b is not None]
    assert len(pairs) == 10
    for a, b in pairs:
        case = (a["q"], a["n"], a["k"])
        assert [a[f] for f in fields] == [b[f] for f in fields], case
        assert len(a["witnesses"]) == len(b["witnesses"]), case


def test_reports_at_n7_through_annihilators():
    """(2,7,4,t): min(k, n-k) = 3 reached through annihilators.  Γ has
    more pairs than ALL_PAIRS_CAP, which its one-source check never needs.
    The lines were recorded with the stacked-rank metric, without wall_ms."""
    lines = [
        re.sub(r',"wall_ms":\d+\}$', "}", report_json_line(report))
        for report in verify_group(2, 7, 4, [2, 3], ENUM_CAP, ALL_PAIRS_CAP)
    ]
    assert lines == [
        '{"q":2,"n":7,"k":4,"t":2,"bound_satisfied":false,"class_size":1605,'
        '"connected":true,"component_count":1,"diameter_delta":3,"diameter_gamma":3,'
        '"isometric":true,"witnesses":[],"caps_hit":[]}',
        '{"q":2,"n":7,"k":4,"t":3,"bound_satisfied":false,"class_size":30,'
        '"connected":true,"component_count":1,"diameter_delta":3,"diameter_gamma":3,'
        '"isometric":true,"witnesses":[],"caps_hit":[]}',
    ]
