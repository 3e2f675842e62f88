"""Command-line front end.

Subcommands: classify, path, opposite, sweep, enumerate.  Exit codes:
0 all checks passed; 1 a constructive search failed below the field-size
bound (not a theorem violation); 2 theorem violated on a bound-satisfied
instance; 3 resource caps prevented verification; 4 input error (also
an --out path that cannot be written, or a resumed file holding a line
that is not a report).
"""

from __future__ import annotations

import argparse
import json
import sys
from math import comb
from pathlib import Path

from . import construct, sweep as sweep_mod
from .codes import (
    LinearCode,
    apply_monomial,
    classify,
    parse_generator,
    strength,
)
from .errors import (
    AllPairsTooLargeError,
    EnumerationTooLargeError,
    FieldMismatchError,
    GrassCodesError,
    NoLambdaError,
    NotInCtError,
    ParseError,
    PathFailedError,
    TooLargeExactError,
)
from .gf import field_of_order
from .grassmann import ALL_PAIRS_CAP, ENUM_CAP, build_delta, enumerate_subspaces
from .linalg import intersect

EXIT_OK = 0
EXIT_SEARCH_FAILED = 1
EXIT_VIOLATION = 2
EXIT_CAPPED = 3
EXIT_INPUT = 4


def _read_code(path: str) -> LinearCode:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return parse_generator(text)


def _rows(code: LinearCode) -> list[list[int]]:
    return [list(map(int, r)) for r in code.generator.rows]


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if out:
        Path(out).write_text(text)
    sys.stdout.write(text)


def _parse_int_list(text: str) -> list[int]:
    """'2,3,5' and '2-5' and mixes of both."""
    vals: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "-" in part[1:]:
            lo, hi = part.split("-", 1)
            vals.extend(range(int(lo), int(hi) + 1))
        else:
            vals.append(int(part))
    if not vals:
        raise ValueError(f"empty range {text!r}")
    return vals


# -- subcommands ------------------------------------------------------------------

def cmd_classify(args) -> int:
    code = _read_code(args.file)
    info = classify(code)
    info["generator"] = _rows(code)
    _emit(info, args.out)
    return EXIT_OK


def cmd_path(args) -> int:
    x = _read_code(args.file_x)
    y = _read_code(args.file_y)
    if x.ctx != y.ctx or x.n != y.n or x.k != y.k:
        raise FieldMismatchError("the two codes have different q, n, or k")
    t = args.t
    # construct first: it rejects t < 1 and codes outside the class before comb(n, t)
    try:
        path, failure = construct.geodesic_path(x, y, t), None
    except PathFailedError as exc:
        path, failure = exc.partial_path, exc
    expected = x.k - intersect(x.space, y.space).dim
    bound_ok = x.ctx.q >= comb(x.n, t)
    payload = {
        "q": x.ctx.q, "n": x.n, "k": x.k, "t": t,
        "bound_satisfied": bound_ok,
        "expected_length": expected,
    }
    if failure is not None:
        payload["error"] = str(failure)
        payload["partial_path"] = [_rows(c) for c in path]
        _emit(payload, args.out)
        return EXIT_VIOLATION if bound_ok else EXIT_SEARCH_FAILED
    edges = []
    for a, b in zip(path, path[1:]):
        edges.append(
            {
                "meet_dim": intersect(a.space, b.space).dim,
                "strength_next": strength(b),
            }
        )
    payload["length"] = len(path) - 1
    payload["codes"] = [_rows(c) for c in path]
    payload["edge_checks"] = edges
    ok = (
        len(path) - 1 == expected
        and all(e["meet_dim"] == x.k - 1 for e in edges)
        and all(strength(c) >= t for c in path)
    )
    payload["ok"] = ok
    _emit(payload, args.out)
    return EXIT_OK if ok else EXIT_VIOLATION


def cmd_opposite(args) -> int:
    c = _read_code(args.file)
    t = args.t
    bound_ok = c.ctx.q > max(c.k, c.n - c.k) + 1
    payload = {
        "q": c.ctx.q, "n": c.n, "k": c.k, "t": t,
        "bound_satisfied": bound_ok,
    }
    try:
        res = construct.opposite_code(c, t)
    except NoLambdaError as exc:
        payload["error"] = str(exc)
        _emit(payload, args.out)
        return EXIT_VIOLATION if bound_ok else EXIT_SEARCH_FAILED
    meet = intersect(c.space, res.code.space).dim
    recheck = apply_monomial(res.witness, c) == res.code
    payload.update(
        {
            "lambda": res.lam,
            "d": _rows(res.code),
            "witness": {
                "perm": [p + 1 for p in res.witness.perm],
                "scalars": list(res.witness.scalars),
            },
            "checks": {
                "meet_dim": meet,
                "expected_meet_dim": max(2 * c.k - c.n, 0),
                "strength_input": strength(c),
                "strength_output": strength(res.code),
                "witness_reproduces_d": recheck,
                "distance": c.k - meet,
            },
        }
    )
    ok = (
        meet == max(2 * c.k - c.n, 0)
        and recheck
        and strength(res.code) >= t
    )
    payload["ok"] = ok
    _emit(payload, args.out)
    return EXIT_OK if ok else EXIT_VIOLATION


def cmd_enumerate(args) -> int:
    ctx = field_of_order(args.q)
    index = enumerate_subspaces(ctx, args.n, args.k, max_count=args.max_vertices)
    delta = build_delta(index, args.t)
    lines = [f"# q={args.q} n={args.n} k={args.k} t={args.t} count={delta.num_vertices}"]
    for i in range(delta.num_vertices):
        rows = delta.subspace_at(i).basis.rows
        lines.append(" ".join(str(x) for r in rows for x in r))
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    print(f"count {delta.num_vertices}", file=sys.stderr)
    return EXIT_OK


def _load_resume_keys(path: Path) -> tuple[set, list[dict]]:
    """Keys and records of the complete lines of a resumed output file.

    Every complete line must be a report (`sweep.validate_report`);
    otherwise ValueError is raised and the file is left as it was.  A
    partial last line (a run cut off mid-write) is truncated away, so
    appended records start on a line of their own."""
    if not path.exists():
        return set(), []
    data = path.read_bytes()
    end = data.rfind(b"\n") + 1
    olds = []
    for lineno, line in enumerate(data[:end].decode().splitlines(), 1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            sweep_mod.validate_report(rec)
        except (ValueError, GrassCodesError) as exc:
            raise ValueError(f"{path}:{lineno} is not a report: {exc}") from exc
        olds.append(rec)
    if end < len(data):
        with path.open("r+b") as fh:
            fh.truncate(end)
    return {(r["q"], r["n"], r["k"], r["t"]) for r in olds}, olds


def cmd_sweep(args) -> int:
    config = sweep_mod.SweepConfig(
        q_list=_parse_int_list(args.q),
        n_list=_parse_int_list(args.n),
        k_list=_parse_int_list(args.k) if args.k else None,
        t_list=_parse_int_list(args.t) if args.t else None,
        max_vertices=args.max_vertices,
        max_pairs=args.max_pairs,
        workers=args.workers,
    )
    out_path = Path(args.out) if args.out else None
    if args.resume and (out_path is None or args.format != "json"):
        raise ValueError("--resume needs --out and --format json")
    csv_path = out_path.with_suffix(".csv") if out_path and args.format == "json" else None
    if csv_path and csv_path == out_path:
        raise ValueError(f"--out {out_path} would be overwritten by its CSV summary")
    skip: set = set()
    old_reports: list[dict] = []
    if args.resume:
        skip, old_reports = _load_resume_keys(out_path)
    reports = list(old_reports)
    sink = out_path.open("a" if args.resume else "w") if out_path else None

    def emit(line: str):
        if sink:
            sink.write(line + "\n")
            sink.flush()
        else:
            print(line, flush=True)

    try:
        if args.format == "csv":
            emit(sweep_mod.csv_header())
        for report in sweep_mod.run_sweep(config, skip=skip):
            reports.append(report)
            if args.format == "csv":
                emit(sweep_mod.report_csv_row(report))
            else:
                emit(sweep_mod.report_json_line(report))
    finally:
        if sink:
            sink.close()

    if csv_path:
        with csv_path.open("w") as fh:
            fh.write(sweep_mod.csv_header() + "\n")
            for report in reports:
                fh.write(sweep_mod.report_csv_row(report) + "\n")

    if any(sweep_mod.is_violation(r) for r in reports):
        return EXIT_VIOLATION
    if any(r["caps_hit"] for r in reports):
        return EXIT_CAPPED
    return EXIT_OK


# -- parser ------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grasscodes",
        description="Linear codes in the Grassmann graph: classification, "
        "construction, and exhaustive verification sweeps.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("classify", help="strength / dual distance of one code")
    p.add_argument("file", help="generator-matrix file ('q n k' header)")
    p.add_argument("--out", help="also write the JSON report here")
    p.set_defaults(func=cmd_classify)

    p = subs.add_parser("path", help="geodesic path between two codes")
    p.add_argument("file_x")
    p.add_argument("file_y")
    p.add_argument("--t", type=int, required=True, help="strength to stay inside")
    p.add_argument("--out")
    p.set_defaults(func=cmd_path)

    p = subs.add_parser("opposite", help="equivalent code at maximum distance")
    p.add_argument("file")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_opposite)

    p = subs.add_parser("enumerate", help="write every strength-t code, one per line")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--out")
    p.add_argument("--max-vertices", type=int, default=ENUM_CAP)
    p.set_defaults(func=cmd_enumerate)

    p = subs.add_parser("sweep", help="verify a (q, n, k, t) grid, one report per instance")
    p.add_argument("--q", required=True, help="e.g. 2,3,5 or 2-9")
    p.add_argument("--n", required=True, help="e.g. 2-5")
    p.add_argument("--k", help="default: every k in [1, n-1]")
    p.add_argument("--t", help="default: every t in [1, k]")
    p.add_argument("--max-vertices", type=int, default=ENUM_CAP)
    p.add_argument("--max-pairs", type=int, default=ALL_PAIRS_CAP,
                   help="cap on the distances verified per strength class: "
                   "orbit representatives x vertices (default 2^25)")
    p.add_argument("--workers", type=int, default=1,
                   help="processes, clamped to min(N, CPU count, (q, n, k) groups)")
    p.add_argument("--out", help="JSONL output path, overwritten unless --resume "
                   "(CSV summary written next to it)")
    p.add_argument("--resume", action="store_true",
                   help="append to --out, skipping instances already there; "
                   "a partial last line is dropped")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (AllPairsTooLargeError, EnumerationTooLargeError, TooLargeExactError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPPED
    except (ParseError, FieldMismatchError, NotInCtError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except GrassCodesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
