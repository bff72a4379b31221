"""Command-line interface.

Exit codes: 0 success; 2 mathematical disagreement between routes (the
important signal: a falsified identity); 3 resource cap exceeded; 4 usage
error (a bad argument, or an output file that cannot be written).  The
exact core never touches floats; decimal approximations are attached only
here, at the presentation layer.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import io
import json
import sys
from typing import Any, Sequence

from . import cellrep, tlalg, verify
from .combinatorics import catalan, w_dim
from .diagram import tl_basis
from .exactnum import CycNum, cyclotomic_field

EXIT_OK = 0
EXIT_DISAGREE = 2
EXIT_RESOURCE = 3
EXIT_USAGE = 4

_ROUTES = ("rank", "altsum", "matrix", "closed")


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse default exits 2; we reserve that
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_n_range(text: str) -> tuple[int, int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        a, b = int(lo), int(hi)
    else:
        a = b = int(text)
    if a < 0:
        raise ValueError("n must be non-negative")
    if a > b:
        raise ValueError("empty n range")
    return a, b


def _scalar_json(c: CycNum) -> dict[str, Any]:
    approx = c.approx()
    return {
        "den": c.den,
        "num": list(c.num),
        "str": repr(c),
        "approx": [round(approx.real, 12), round(approx.imag, 12)],
    }


def _meta(level: int) -> dict[str, Any]:
    field = cyclotomic_field(level)
    return {
        "level": level,
        "q-description": f"q = zeta_{2 * level}^{level + 1} = -exp(i*pi/{level})",
        "delta": _scalar_json(field.delta),
    }


def _emit(payload: dict[str, Any], fmt: str, out: str | None) -> None:
    rows = payload.get("rows", [])
    # Rows may differ in their keys: the columns are their union, first seen first.
    keys = list(dict.fromkeys(k for row in rows for k in row))
    if fmt == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        if rows:
            writer = csv.DictWriter(buf, fieldnames=keys)
            writer.writeheader()
            writer.writerows(rows)
        text = buf.getvalue()
    elif fmt == "markdown":
        if not rows:
            text = "(no rows)\n"
        else:
            lines = ["| " + " | ".join(keys) + " |"]
            lines.append("|" + "|".join(" --- " for _ in keys) + "|")
            for row in rows:
                lines.append("| " + " | ".join(str(row.get(k, "")) for k in keys) + " |")
            text = "\n".join(lines) + "\n"
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {out}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def _emit_table(
    rows: list[dict[str, Any]], computed: bool, level: int, fmt: str, out: str | None
) -> int:
    """Emit rows with an ``agree`` flag; exit 3 when no route reached a row."""
    _emit({"meta": _meta(level), "rows": rows}, fmt, out)
    if not computed:
        return EXIT_RESOURCE
    return EXIT_OK if all(row["agree"] for row in rows) else EXIT_DISAGREE


def cmd_dims(args: argparse.Namespace) -> int:
    lo, hi = _parse_n_range(args.n)
    if args.level < 3:
        raise ValueError("level must be at least 3")
    routes = tuple(r.strip() for r in args.routes.split(","))
    for r in routes:
        if r not in _ROUTES:
            raise ValueError(f"unknown route {r!r}")
    rows = []
    for n in range(lo, hi + 1):
        dims, dimq = verify.routes_at(args.level, n, routes)
        for t in cellrep.quotient_labels(args.level, n):
            at_t = {route: table[t] for route, table in dims.items() if table is not None}
            row: dict[str, Any] = {"n": n, "t": t, "w": w_dim(t, n)}
            for route in ("rank", "altsum", "matrix"):
                if route in routes:
                    row[f"l_{route}"] = at_t.get(route)
            for route in routes:
                row[f"dimQ_{route}"] = dimq[route]
            row["agree"] = verify.agree(at_t) and verify.agree(dimq)
            rows.append(row)
    computed = routes != ("rank",) or any(row["l_rank"] is not None for row in rows)
    return _emit_table(rows, computed, args.level, args.format, args.out)


def cmd_jw(args: argparse.Namespace) -> int:
    if args.level - 1 > verify.REACH["jw"]:
        sys.stderr.write(
            f"E_{args.level - 1} has {catalan(args.level - 1)} diagram terms; "
            f"the reach is E_{verify.REACH['jw']}\n"
        )
        return EXIT_RESOURCE
    e = tlalg.jones_wenzl(args.level).element
    n = args.level - 1
    rows = []
    for d in tl_basis(n):
        c = e.coefficient(d)
        rows.append(
            {
                "pairing": ",".join(map(str, d.pairing)),
                "coefficient": repr(c),
                "approx_re": round(c.approx().real, 12),
                "approx_im": round(c.approx().imag, 12),
            }
        )
    checks = verify.jw_checks(args.level)
    payload = {"meta": _meta(args.level), "rows": rows, "checks": checks}
    _emit(payload, args.format, args.out)
    return EXIT_OK if all(checks.values()) else EXIT_DISAGREE


def cmd_gram_rank(args: argparse.Namespace) -> int:
    lo, hi = _parse_n_range(args.n)
    ns = range(lo, hi + 1)
    if args.t is not None and args.kind == "trace":
        raise ValueError("--t selects a cell module and applies to --kind cell only")
    if args.t is not None and not any(args.t in cellrep.admissible_t(n) for n in ns):
        raise ValueError(f"t = {args.t} is admissible for no n in {args.n}")
    rows = []
    for n in ns:
        if n > verify.REACH["rank" if args.kind == "cell" else "sandwich"]:
            continue
        if args.kind == "cell":
            rows.extend(
                verify.cell_rank_row(t, n, args.level)
                for t in cellrep.admissible_t(n)
                if args.t in (None, t)
            )
            continue
        rank = tlalg.trace_gram_rank(args.level, n)
        row = {"n": n, "dim": catalan(n), "rank": rank}
        if n >= args.level - 1:
            row["ideal_dim"] = tlalg.ideal_dimension(args.level, n)
        row["agree"] = rank == catalan(n) - row.get("ideal_dim", 0)
        rows.append(row)
    return _emit_table(rows, bool(rows), args.level, args.format, args.out)


def cmd_quotient(args: argparse.Namespace) -> int:
    lo, hi = _parse_n_range(args.n)
    rows = []
    for n in range(lo, hi + 1):
        _, dimq = verify.routes_at(args.level, n, ("altsum", "matrix", "closed", "ideal"))
        row = {"n": n, "catalan": catalan(n)}
        row.update({f"dimQ_{route}": v for route, v in dimq.items()})
        row["agree"] = verify.agree(dimq)
        rows.append(row)
    computed = any(row["dimQ_ideal"] is not None for row in rows)
    return _emit_table(rows, computed, args.level, args.format, args.out)


def cmd_clifford_check(args: argparse.Namespace) -> int:
    """The Clifford suite's checks for n in --n.  The suite runs from n = 3,
    since its sampled pairs come from one seeded stream, and the exit code
    is its verdict on every check it ran."""
    lo, hi = _parse_n_range(args.n)
    if lo > verify.REACH["clifford"]:
        sys.stderr.write(f"n = {lo} is past the Clifford reach n = {verify.REACH['clifford']}\n")
        return EXIT_RESOURCE
    report = verify.clifford_suite(max_n=hi, seed=args.seed)
    rows = [c for c in report["checks"] if int(c["name"][2:].split(":", 1)[0]) >= lo]
    if not rows:
        raise ValueError(f"the Clifford checks start at n = 3; --n {args.n} has none")
    _emit({"meta": _meta(4), "rows": rows, "suite": report["suite"]}, args.format, args.out)
    return EXIT_OK if report["passed"] else EXIT_DISAGREE


def cmd_catalan(args: argparse.Namespace) -> int:
    report = verify.catalan_suite(order=args.K)
    _emit({"rows": report["checks"], "suite": "catalan"}, args.format, args.out)
    return EXIT_OK if report["passed"] else EXIT_DISAGREE


def cmd_verify(args: argparse.Namespace) -> int:
    suite = verify.SUITES.get(args.suite)
    if suite is None:
        sys.stderr.write(
            f"unknown suite {args.suite!r}; choose from {sorted(verify.SUITES)}\n"
        )
        return EXIT_USAGE
    if args.max_n is not None and args.max_n < 0:
        raise ValueError("--max-n must be non-negative")
    # Only the flags given are passed, so each suite keeps its own defaults;
    # a flag the suite does not take is refused.  Each suite stops its
    # routes at their reach.
    params = inspect.signature(suite).parameters
    names = {"--level": "level", "--max-n": "max_n", "--K": "order", "--seed": "seed"}
    given = {"--level": args.level, "--max-n": args.max_n, "--K": args.K, "--seed": args.seed}
    given = {flag: value for flag, value in given.items() if value is not None}
    refused = [flag for flag in given if names[flag] not in params]
    if refused:
        taken = [flag for flag, name in names.items() if name in params] + ["--out"]
        raise ValueError(f"suite {args.suite!r} takes only {', '.join(taken)}; not {', '.join(refused)}")
    report = suite(**{names[flag]: value for flag, value in given.items()})
    if not report["checks"]:
        raise ValueError(f"suite {args.suite!r} has no checks up to --max-n {args.max_n}")
    _emit(report, "json", args.out)
    return EXIT_OK if report["passed"] else EXIT_DISAGREE


def build_parser() -> _Parser:
    parser = _Parser(prog="tlq", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: _Parser, *, level=True, nrange=False):
        if level:
            p.add_argument("--level", type=int, default=4, help="root-of-unity order l >= 3")
        if nrange:
            p.add_argument("--n", type=str, required=True, help="strand range a..b")
        p.add_argument("--format", choices=("json", "csv", "markdown"), default="json")
        p.add_argument("--out", type=str, default=None, help="write output to a file")

    p = sub.add_parser("dims", help="cell and simple dimension tables, multi-route")
    add_common(p, nrange=True)
    p.add_argument("--routes", type=str, default="rank,altsum,matrix,closed")
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("jw", help="print the Jones-Wenzl idempotent and its checks")
    add_common(p)
    p.set_defaults(func=cmd_jw)

    p = sub.add_parser("gram-rank", help="Gram matrix ranks (cell or trace form)")
    add_common(p, nrange=True)
    p.add_argument("--t", type=int, default=None, help="restrict to one through-strand label (--kind cell)")
    p.add_argument("--kind", choices=("cell", "trace"), default="cell")
    p.set_defaults(func=cmd_gram_rank)

    p = sub.add_parser("quotient", help="dim Q_n(l) by the ideal and closed routes")
    add_common(p, nrange=True)
    p.set_defaults(func=cmd_quotient)

    p = sub.add_parser("clifford-check", help="level-4 Clifford verification block")
    add_common(p, level=False, nrange=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_clifford_check)

    p = sub.add_parser("catalan", help="generating-function identity checks")
    add_common(p, level=False)
    p.add_argument("--K", type=int, default=12)
    p.set_defaults(func=cmd_catalan)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite", type=str)
    p.add_argument("--level", type=int, default=None)
    p.add_argument("--max-n", type=int, default=None, dest="max_n")
    p.add_argument("--K", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except ArithmeticError as exc:
        sys.stderr.write(f"computation failed: {exc}\n")
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
