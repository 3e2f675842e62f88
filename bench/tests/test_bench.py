"""Tests of the benchmark itself, on shrunken inputs.

    python3 -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SMALL = {
    "sweep-ref": dict(groups=workloads.SMOKE_GROUPS),
    "construct-witnesses": dict(instances=((9, 4, 2, 2, 2), (8, 6, 3, 1, 2))),
    "classify-codes": dict(fields=(2,), max_n=4, shapes=((5, 8, 2),), codes_per_shape=2),
}


def make(name, seed=1):
    return workloads.WORKLOADS[name](seed, **SMALL[name])


def grasscodes_bindings():
    """Every attribute of every grasscodes module, plus the wrapped methods."""
    from grasscodes.grassmann import GrassmannGraph, SubspaceIndex
    from grasscodes.linalg import MatrixGF

    out = {
        (name, attr): value
        for name, mod in sys.modules.items()
        if name == "grasscodes" or name.startswith("grasscodes.")
        for attr, value in vars(mod).items()
    }
    for cls in (GrassmannGraph, SubspaceIndex, MatrixGF):
        out.update(((cls.__name__, attr), value) for attr, value in vars(cls).items())
    return out


@pytest.mark.parametrize("name", sorted(SMALL))
def test_smoke_run_traced_matches_untraced(name):
    wl = make(name)
    untraced = run.run_passes(wl, budget_s=0)
    traced = [run.Pass(wl, Tracer()) for _ in range(run.TRACED_PASSES)]
    attempted, failed = run.count_failures(wl, untraced + traced)
    assert len(untraced) == 1
    assert failed == 0 and attempted == 3 * len(untraced[0].outputs)
    metrics, problems = run.per_layer(untraced, traced)
    assert problems == []
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(metrics) == [m["name"] for m in declared["per_layer"]]
    assert sorted(run.end_to_end([0.1], untraced)) == sorted(m["name"] for m in declared["end_to_end"])
    value = {k: v["value"] for k, v in metrics.items()}
    graph_s = value["grassmann.adjacency_s"] + value["grassmann.bfs_gamma_s"] + value["grassmann.bfs_delta_s"]
    if name == "sweep-ref":
        assert value["sweep.instances"] == 4
        assert value["grassmann.edges"] > 0 and graph_s > 0
        assert value["linalg.hyperplanes_yielded"] > 0
    else:
        assert value["grassmann.edges"] == 0 and graph_s == 0
        assert value["linalg.rref_calls"] > 0 and value["linalg.matrices_built"] > 0
    if name == "construct-witnesses":
        assert value["construct.meet_checks"] > 0 and value["construct.meet_violations"] == 0
        assert 0 < value["construct.step_yield"] <= 1
    if name == "classify-codes":
        assert value["bulk.min_weight_calls"] == 2
        assert value["construct.meet_checks"] == 0


def test_tracer_restores_every_original():
    make("construct-witnesses")  # imports every grasscodes module
    before = grasscodes_bindings()
    tracer = Tracer()
    tracer.install()
    try:
        during = grasscodes_bindings()
        changed = {key for key, value in before.items() if during[key] is not value}
        assert {
            ("grasscodes.linalg", "rref"),
            ("grasscodes.codes", "rref"),
            ("grasscodes.construct", "strength"),
            ("grasscodes.sweep", "verify_instance"),
            ("grasscodes.sweep", "build_delta"),
            ("grasscodes", "geodesic_path"),
            ("GrassmannGraph", "adjacency"),
            ("MatrixGF", "__init__"),
        } <= changed
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.restore()
    after = grasscodes_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


@pytest.mark.parametrize("name", ["construct-witnesses", "classify-codes"])
def test_same_seed_same_inputs(name):
    assert make(name, 7).inputs() == make(name, 7).inputs()
    assert make(name, 7).inputs() != make(name, 8).inputs()


def test_checks_reject_wrong_outputs():
    sweep_wl = make("sweep-ref")
    lines, _ = sweep_wl.run_pass()
    assert all(sweep_wl.check(lines))
    report = json.loads(lines[0])
    report["class_size"] += 1
    assert sweep_wl.check([json.dumps(report)] + lines[1:])[0] is False

    cons = make("construct-witnesses")
    outs, _ = cons.run_pass()
    assert all(cons.check(outs))
    bad = list(outs)
    bad[0] = outs[0][::-1]  # the path walked backwards
    bad[1] = outs[3]  # the opposite of another code of the same shape
    assert cons.check(bad)[:2] == [False, False]

    cls = make("classify-codes")
    outs, _ = cls.run_pass()
    assert all(cls.check(outs))
    outs[0] = (True, False, True)
    assert cls.check(outs)[0] is False


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "classify-codes",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_failures_counted_per_operation_and_pass():
    class Stub:
        passes = 0

        def run_pass(self):
            self.passes += 1
            last = 3 if self.passes == 1 else 4  # differs from the first pass
            return [1, workloads.Failed(ValueError("boom")), last], [0.001] * 3

        def digest(self, out):
            return None if isinstance(out, workloads.Failed) else out

        def check(self, outputs):
            return [True, False, True]

    stub = Stub()
    passes = [run.Pass(stub, keep_outputs=True), run.Pass(stub)]
    assert passes[1].outputs is None
    assert run.count_failures(stub, passes) == (6, 3)
