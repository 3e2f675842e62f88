"""The benchmark tracer (`bench/tracer.py`) wraps grasscodes functions and
methods by name.  A traced group must still reach the wrapped enumeration
and strength targets, count what it did before, and leave every binding
as it found it."""

import importlib.util
import sys
from pathlib import Path

from grasscodes import bulk, codes, construct, grassmann, linalg, sweep  # noqa: F401

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def grasscodes_bindings():
    """Every attribute of every grasscodes module, plus the attributes of
    the classes whose methods the tracer wraps."""
    out = {
        (name, attr): value
        for name, mod in list(sys.modules.items())
        if name == "grasscodes" or name.startswith("grasscodes.")
        for attr, value in vars(mod).items()
    }
    for cls in (grassmann.GrassmannGraph, grassmann.SubspaceIndex, linalg.MatrixGF):
        out.update(((cls.__name__, attr), value) for attr, value in vars(cls).items())
    return out


def test_traced_group_reaches_enumeration_and_strength():
    """verify_group over (2,4,2), t = 1, 2: the strength span is timed, and
    the enumeration count is the group's 35 subspaces plus the 3 points of
    F_2^2 that its span keys enumerate, as before the column-prefix kernel."""
    before = grasscodes_bindings()
    tracer = load_tracer()()
    tracer.install()
    try:
        reports = sweep.verify_group(2, 4, 2, [1, 2], grassmann.ENUM_CAP, grassmann.ALL_PAIRS_CAP)
    finally:
        tracer.restore()
    times, counts = tracer.snapshot()
    assert [r["class_size"] for r in reports] == [13, 0]
    assert times["grassmann.strength_s"] > 0 and times["grassmann.enumerate_s"] > 0
    assert counts["grassmann.subspaces"] == 38
    assert counts["sweep.instances"] == 2
    after = grasscodes_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_tracer_rebinds_the_graph_by_name():
    """The tracer wraps `adjacency` and `strength_all` on the class it
    reaches as GrassmannGraph and as SubspaceIndex, and `build_delta` where
    sweep imported it; its own tests key the wrapped methods by the class's
    __name__, so the one graph class must be named GrassmannGraph and the
    other name must be an alias of it."""
    assert grassmann.GrassmannGraph.__name__ == "GrassmannGraph"
    assert grassmann.SubspaceIndex is grassmann.GrassmannGraph
    before = grasscodes_bindings()
    tracer = load_tracer()()
    tracer.install()
    try:
        during = grasscodes_bindings()
    finally:
        tracer.restore()
    changed = {key for key, value in before.items() if during[key] is not value}
    assert {
        ("GrassmannGraph", "adjacency"),
        ("GrassmannGraph", "strength_all"),
        ("grasscodes.sweep", "build_delta"),
    } <= changed
    after = grasscodes_bindings()
    assert all(after[key] is value for key, value in before.items())
