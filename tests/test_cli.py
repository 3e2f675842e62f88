import json

import pytest

from conftest import all_codes
from grasscodes.cli import main
from grasscodes.codes import format_generator, parse_generator, strength
from grasscodes.construct import vandermonde_mds
from grasscodes.gf import field_new
from grasscodes.linalg import intersect


def write_code(tmp_path, name, code):
    p = tmp_path / name
    p.write_text(format_generator(code))
    return str(p)


@pytest.fixture
def vandermonde_file(tmp_path):
    return write_code(tmp_path, "x.txt", vandermonde_mds(field_new(5), 4, 2))


def test_classify_ok(vandermonde_file, capsys):
    assert main(["classify", vandermonde_file]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["strength"] == 2 and out["mds"] is True
    assert out["dual_min_distance"] == 3
    assert out["q"] == 5 and out["n"] == 4 and out["k"] == 2


def test_classify_degenerate(tmp_path, capsys):
    p = tmp_path / "d.txt"
    p.write_text("2 3 2\n1 0 0\n0 1 0\n")
    assert main(["classify", str(p)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["degenerate"] is True and out["strength"] == 0


def test_classify_bad_file(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_text("2 3\n1 0 1\n")
    assert main(["classify", str(p)]) == 4
    assert main(["classify", str(tmp_path / "missing.txt")]) == 4


def test_path_trivial(vandermonde_file, capsys):
    assert main(["path", vandermonde_file, vandermonde_file, "--t", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["length"] == 0 and out["ok"] is True


def test_path_disjoint_pair(tmp_path, vandermonde_file, capsys):
    rc = main(["opposite", vandermonde_file, "--t", "1",
               "--out", str(tmp_path / "opp.json")])
    assert rc == 0
    capsys.readouterr()
    opp = json.loads((tmp_path / "opp.json").read_text())
    y = tmp_path / "y.txt"
    y.write_text("5 4 2\n" + "\n".join(" ".join(map(str, r)) for r in opp["d"]) + "\n")
    assert main(["path", vandermonde_file, str(y), "--t", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["length"] == 2 == out["expected_length"]
    assert out["ok"] is True
    assert all(e["meet_dim"] == 1 for e in out["edge_checks"])


def test_path_field_mismatch(tmp_path, vandermonde_file, capsys):
    other = write_code(tmp_path, "o.txt", vandermonde_mds(field_new(7), 4, 2))
    assert main(["path", vandermonde_file, other, "--t", "1"]) == 4


def test_path_below_bound_failure(tmp_path, capsys):
    """Frozen witness pair over GF(2): partial path emitted, exit 1."""
    codes = [c for c in all_codes(field_new(2), 5, 2) if strength(c) >= 1]
    x, y = codes[2], codes[3]
    assert intersect(x.space, y.space).dim == 0
    fx = write_code(tmp_path, "x2.txt", x)
    fy = write_code(tmp_path, "y2.txt", y)
    assert main(["path", fx, fy, "--t", "1"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["bound_satisfied"] is False
    assert "error" in out and out["partial_path"]


def test_opposite_ok(vandermonde_file, capsys):
    assert main(["opposite", vandermonde_file, "--t", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["checks"]["meet_dim"] == 0
    assert out["checks"]["witness_reproduces_d"] is True
    assert out["ok"] is True
    assert len(out["witness"]["perm"]) == 4
    assert sorted(out["witness"]["perm"]) == [1, 2, 3, 4]


def test_opposite_not_in_class(tmp_path, capsys):
    p = tmp_path / "d.txt"
    p.write_text("5 3 2\n1 0 0\n0 1 0\n")
    assert main(["opposite", str(p), "--t", "1"]) == 4


def test_opposite_below_bound(tmp_path, capsys):
    p = tmp_path / "tiny.txt"
    p.write_text("2 2 1\n1 1\n")
    assert main(["opposite", str(p), "--t", "1"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["bound_satisfied"] is False and "error" in out


@pytest.mark.parametrize("t", ["0", "-1"])
@pytest.mark.parametrize("command", ["path", "opposite"])
def test_construct_rejects_t_below_one(command, t, vandermonde_file, capsys):
    files = [vandermonde_file] * (2 if command == "path" else 1)
    assert main([command, *files, "--t", t]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"t={t}" in captured.err


def test_enumerate(tmp_path, capsys):
    out_file = tmp_path / "codes.txt"
    assert main([
        "enumerate", "--q", "2", "--n", "3", "--k", "2", "--t", "1",
        "--out", str(out_file),
    ]) == 0
    err = capsys.readouterr().err
    assert "count 4" in err
    lines = out_file.read_text().splitlines()
    assert lines[0].startswith("#")
    body = [ln for ln in lines if not ln.startswith("#")]
    assert len(body) == 4
    # each line is a flattened RREF basis parseable by the shared format
    for ln in body:
        vals = ln.split()
        assert len(vals) == 6
        code = parse_generator("2 3 2\n" + " ".join(vals[:3]) + "\n" + " ".join(vals[3:]) + "\n")
        assert strength(code) >= 1


def test_enumerate_caps(capsys):
    rc = main([
        "enumerate", "--q", "2", "--n", "4", "--k", "2", "--t", "1",
        "--max-vertices", "3",
    ])
    assert rc == 3


def test_sweep_stdout_and_exit_codes(capsys):
    assert main(["sweep", "--q", "3", "--n", "2"]) == 0
    capsys.readouterr()
    assert main(["sweep", "--q", "2", "--n", "2"]) == 2  # known gap instance
    capsys.readouterr()
    rc = main(["sweep", "--q", "2", "--n", "4", "--t", "1", "--max-pairs", "4"])
    assert rc == 3
    capsys.readouterr()


def test_sweep_q5_n5_fits_the_pairs_cap(capsys):
    """BFS from one representative per symmetry orbit keeps (5,5,2,1)
    (16,576 vertices) and (5,5,3,1) (19,536), both bound-satisfied, and
    (5,5,3,2) under the pairs cap, which their V(V-1)/2 pairs exceed."""
    assert main(["sweep", "--q", "5", "--n", "5"]) == 0
    reports = {
        (r["k"], r["t"]): r for r in map(json.loads, capsys.readouterr().out.splitlines())
    }
    assert all(r["caps_hit"] == [] for r in reports.values())
    for k, size in [(2, 16576), (3, 19536)]:
        r = reports[(k, 1)]
        assert r["bound_satisfied"] and r["class_size"] == size
        assert r["connected"] and r["isometric"]
        assert r["diameter_delta"] == r["diameter_gamma"] == 2


def test_sweep_bad_config(capsys):
    assert main(["sweep", "--q", "2", "--n", "2", "--k", "5"]) == 4
    assert main(["sweep", "--q", "6", "--n", "3"]) == 4
    assert main(["sweep", "--q", "2", "--n", "3", "--workers", "0"]) == 4
    assert main(["sweep", "--q", "257", "--n", "2"]) == 4  # q > 256


def test_sweep_out_files_and_resume(tmp_path, capsys):
    out = tmp_path / "reports.jsonl"
    args = ["sweep", "--q", "2,3", "--n", "3", "--t", "1", "--out", str(out)]
    assert main(args) == 0
    first = out.read_text()
    lines = [json.loads(ln) for ln in first.splitlines()]
    assert len(lines) == 4
    csv_file = tmp_path / "reports.csv"
    assert csv_file.exists()
    assert len(csv_file.read_text().splitlines()) == 5  # header + 4 rows
    # resume: everything already present, nothing appended
    assert main(args + ["--resume"]) == 0
    assert out.read_text() == first
    # resume with a wider grid appends only the new instances
    wider = ["sweep", "--q", "2,3,4", "--n", "3", "--t", "1", "--out", str(out),
             "--resume"]
    assert main(wider) == 0
    lines2 = [json.loads(ln) for ln in out.read_text().splitlines()]
    assert len(lines2) == 6
    assert lines2[:4] == lines
    assert {(r["q"], r["n"], r["k"], r["t"]) for r in lines2[4:]} == {
        (4, 3, 1, 1), (4, 3, 2, 1),
    }


def _keys_once(path):
    """Every line parses and each (q, n, k, t) appears exactly once."""
    recs = [json.loads(ln) for ln in path.read_text().splitlines()]
    keys = [(r["q"], r["n"], r["k"], r["t"]) for r in recs]
    assert len(keys) == len(set(keys))
    return recs


def test_sweep_out_overwrites_without_resume(tmp_path, capsys):
    out = tmp_path / "reports.jsonl"
    args = ["sweep", "--q", "3", "--n", "3", "--out", str(out)]
    assert main(args) == 0
    assert main(args) == 0
    assert len(_keys_once(out)) == 3
    assert len((tmp_path / "reports.csv").read_text().splitlines()) == 4


def test_sweep_resume_drops_partial_last_line(tmp_path, capsys):
    out = tmp_path / "reports.jsonl"
    args = ["sweep", "--q", "2,3", "--n", "3", "--t", "1", "--out", str(out)]
    assert main(args) == 0
    full = _keys_once(out)
    text = out.read_text()
    out.write_text(text[: text.rindex("\n", 0, -1) + 20])  # cut mid-line
    assert main(args + ["--resume"]) == 0
    resumed = _keys_once(out)
    for r in full + resumed:
        r.pop("wall_ms")
    assert resumed == full


def test_sweep_resume_needs_json_out(capsys):
    assert main(["sweep", "--q", "2", "--n", "3", "--resume"]) == 4


@pytest.mark.parametrize("line", ["5", '{"q":2,"n":3,"k":1,"t":1}'])
def test_sweep_resume_rejects_non_report_lines(tmp_path, capsys, line):
    out = tmp_path / "reports.jsonl"
    assert main(["sweep", "--q", "2", "--n", "3", "--t", "1", "--out", str(out)]) == 0
    before = out.read_bytes() + line.encode() + b"\n" + b'{"q":3,'
    out.write_bytes(before)
    args = ["sweep", "--q", "2,3", "--n", "3", "--t", "1", "--out", str(out), "--resume"]
    assert main(args) == 4
    assert "is not a report" in capsys.readouterr().err
    assert out.read_bytes() == before


def test_sweep_out_equal_to_csv_summary(tmp_path, capsys):
    out = tmp_path / "r.csv"
    out.write_bytes(b"keep me\n")
    assert main(["sweep", "--q", "3", "--n", "2", "--out", str(out)]) == 4
    assert "CSV summary" in capsys.readouterr().err
    assert out.read_bytes() == b"keep me\n"


def test_out_in_missing_directory(tmp_path, vandermonde_file, capsys):
    missing = tmp_path / "no" / "such"
    assert main(["sweep", "--q", "3", "--n", "2", "--out", str(missing / "r.jsonl")]) == 4
    assert capsys.readouterr().err.startswith("error: ")
    assert main(["classify", vandermonde_file, "--out", str(missing / "c.json")]) == 4
    assert capsys.readouterr().err.startswith("error: ")
    assert not missing.exists()


def test_sweep_csv_format(tmp_path):
    out = tmp_path / "r.csv"
    assert main(["sweep", "--q", "3", "--n", "3", "--t", "1",
                 "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("q,n,k,t,")
    assert len(lines) == 3


def test_sweep_determinism(tmp_path):
    """Byte-identical output except the timing field."""
    import re

    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    for target in (a, b):
        assert main(["sweep", "--q", "2,3", "--n", "3,4",
                     "--out", str(target)]) in (0, 2)

    def strip(path):
        return re.sub(r'"wall_ms":\d+', '"wall_ms":0', path.read_text())

    assert strip(a) == strip(b)


def test_sweep_workers_flag(tmp_path):
    out = tmp_path / "w.jsonl"
    assert main(["sweep", "--q", "2,3", "--n", "3", "--t", "1",
                 "--workers", "2", "--out", str(out)]) == 0
    recs = [json.loads(ln) for ln in out.read_text().splitlines()]
    assert [(r["q"], r["k"]) for r in recs] == [(2, 1), (2, 2), (3, 1), (3, 2)]
