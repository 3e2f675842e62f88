import json
import os
import pathlib
import re

import numpy as np
import pytest

from conftest import index_of
from grasscodes import grassmann
from grasscodes.errors import NotPrimeError
from grasscodes.gf import field_of_order
from grasscodes.grassmann import GrassmannGraph, enumerate_subspaces, isometry_check
from grasscodes.linalg import Subspace
from grasscodes.sweep import (
    CSV_FIELDS,
    REPORT_FIELDS,
    SweepConfig,
    _InstanceCache,
    _witness_json,
    csv_header,
    is_violation,
    report_csv_row,
    report_json_line,
    run_sweep,
    validate_report,
    verify_instance,
)


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


def test_verify_instance_bound_satisfied():
    rep = verify_instance(5, 4, 2, 1)
    validate_report(rep)
    assert rep["bound_satisfied"] is True  # 5 >= C(4,1) = 4
    assert rep["connected"] is True
    assert rep["isometric"] is True
    assert rep["diameter_delta"] == rep["diameter_gamma"] == 2
    assert rep["witnesses"] == [] and rep["caps_hit"] == []
    assert not is_violation(rep)


def test_verify_instance_empty_class():
    rep = verify_instance(2, 4, 2, 2)  # no MDS [4,2] over GF(2)
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
    rep = verify_instance(2, 2, 1, 1)
    validate_report(rep)
    assert rep["bound_satisfied"] is True
    assert rep["class_size"] == 1
    assert rep["diameter_delta"] == 0 and rep["diameter_gamma"] == 1
    assert is_violation(rep)
    # one field up it is fine
    rep3 = verify_instance(3, 2, 1, 1)
    assert not is_violation(rep3)


def test_caps_enumeration():
    rep = verify_instance(2, 4, 2, 1, max_vertices=10)
    validate_report(rep)
    assert rep["caps_hit"] == ["enumeration"]
    assert rep["class_size"] is None
    assert not is_violation(rep)


def test_caps_pairs():
    """The pairs cap applies to the induced subgraph alone; the full
    graph's diameter comes from one BFS source and is still reported."""
    rep = verify_instance(2, 4, 2, 1, max_pairs=5)
    validate_report(rep)
    assert rep["caps_hit"] == ["pairs"]
    assert rep["connected"] is None
    assert rep["diameter_gamma"] == 2
    assert not is_violation(rep)


def test_cache_keys_on_caps():
    """A shared cache must not reuse artifacts computed under another
    enumeration cap."""
    cache = _InstanceCache()
    for t in (1, 2):  # a repeat meets the cap again, not a half-loaded entry
        capped = verify_instance(2, 4, 2, t, max_vertices=10, cache=cache)
        assert capped["caps_hit"] == ["enumeration"]
    shared = verify_instance(2, 4, 2, 2, cache=cache)
    fresh = verify_instance(2, 4, 2, 2)
    assert shared["diameter_gamma"] == fresh["diameter_gamma"] == 2
    assert shared["caps_hit"] == fresh["caps_hit"] == []


def test_witness_json_on_non_isometric_subgraph():
    """A hand-built vertex subset of the (2,4,2) graph: the path
    P2 - P1 - P0 - P3 joins P0 and P3 (metric 2) only at length 3, and S
    meets none of them, so every pair with S is disconnected."""
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
    graph = GrassmannGraph(idx, 1, np.array(ids, dtype=np.int64))
    iso = isometry_check(graph)
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
    report = verify_instance(2, 4, 2, 1)
    report["isometric"] = False
    report["witnesses"] = witnesses
    assert json.loads(report_json_line(report))["witnesses"] == witnesses


def test_report_json_key_order_and_determinism():
    a = verify_instance(3, 4, 2, 1)
    b = verify_instance(3, 4, 2, 1)
    line_a = report_json_line(a)
    line_b = report_json_line(b)
    assert list(json.loads(line_a).keys()) == list(REPORT_FIELDS)
    da, db = json.loads(line_a), json.loads(line_b)
    da.pop("wall_ms"), db.pop("wall_ms")
    assert da == db


def test_csv_shapes():
    rep = verify_instance(3, 3, 2, 1)
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
    import pathlib

    schema_path = pathlib.Path(__file__).parent.parent / "docs" / "report_schema.json"
    schema = json.loads(schema_path.read_text())
    assert tuple(schema["required"]) == REPORT_FIELDS
    assert set(schema["properties"]) == set(REPORT_FIELDS)
    assert schema["properties"]["caps_hit"]["items"]["enum"] == ["enumeration", "pairs"]
    rep = verify_instance(3, 3, 2, 1)
    validate_report(rep)
    for f in REPORT_FIELDS:
        assert f in schema["properties"]


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
    cache = _InstanceCache()
    reports = [verify_instance(3, 4, 2, t, cache=cache) for t in (1, 2)]
    assert [r["diameter_gamma"] for r in reports] == [2, 2]
    assert [r["isometric"] for r in reports] == [True, True]
    assert calls == [(len(cache.index), 1), (84, 4), (8, 1)]


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

        def map(self, fn, tasks):
            return map(fn, tasks)

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
    output of `sweep --q 2,3,4,5,7 --n 2-4` plus `sweep --q 2 --n 6 --k 3`.
    The grid holds the known single-vertex gap (2,2,1,1), empty classes,
    and (2,6,3,t), recorded when its metric came from stacked ranks."""
    configs = [
        SweepConfig(q_list=[2, 3, 4, 5, 7], n_list=[2, 3, 4]),
        SweepConfig(q_list=[2], n_list=[6], k_list=[3]),
    ]
    lines = [
        re.sub(r',"wall_ms":\d+\}$', "}", report_json_line(r))
        for cfg in configs
        for r in run_sweep(cfg)
    ]
    assert lines == GOLDEN.read_text().splitlines()


def test_reports_at_n7_through_annihilators():
    """(2,7,4,t): min(k, n-k) = 3 reached through annihilators.  Γ has
    more pairs than ALL_PAIRS_CAP, which its one-source check never needs.
    The lines were recorded with the stacked-rank metric, without wall_ms."""
    cache = _InstanceCache()
    lines = [
        re.sub(r',"wall_ms":\d+\}$', "}", report_json_line(verify_instance(2, 7, 4, t, cache=cache)))
        for t in (2, 3)
    ]
    assert lines == [
        '{"q":2,"n":7,"k":4,"t":2,"bound_satisfied":false,"class_size":1605,'
        '"connected":true,"component_count":1,"diameter_delta":3,"diameter_gamma":3,'
        '"isometric":true,"witnesses":[],"caps_hit":[]}',
        '{"q":2,"n":7,"k":4,"t":3,"bound_satisfied":false,"class_size":30,'
        '"connected":true,"component_count":1,"diameter_delta":3,"diameter_gamma":3,'
        '"isometric":true,"witnesses":[],"caps_hit":[]}',
    ]
