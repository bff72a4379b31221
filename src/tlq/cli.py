"""Command-line interface.

Exit codes: 0 success; 2 mathematical disagreement between routes (the
important signal: a falsified identity); 3 resource cap exceeded; 4 usage
error.  The exact core never touches floats; decimal approximations are
attached only here, at the presentation layer.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import io
import json
import sys
from dataclasses import dataclass, field
from typing import Any, Sequence

from . import cellrep, tlalg, verify
from .combinatorics import catalan, w_dim
from .diagram import identity, tl_basis
from .exactnum import CycNum, cyclotomic_field

EXIT_OK = 0
EXIT_DISAGREE = 2
EXIT_RESOURCE = 3
EXIT_USAGE = 4

_ROUTES = ("rank", "altsum", "matrix", "closed")


@dataclass(frozen=True)
class RunConfig:
    """A validated dimension-run configuration."""

    level: int
    n_range: tuple[int, int]
    routes: tuple[str, ...] = _ROUTES
    fmt: str = "json"
    out: str | None = None
    max_rank_n: int = 12

    def __post_init__(self):
        if self.level < 3:
            raise ValueError("level must be at least 3")
        if self.n_range[0] > self.n_range[1]:
            raise ValueError("empty n range")
        if not self.routes:
            raise ValueError("at least one route must be selected")
        for r in self.routes:
            if r not in _ROUTES:
                raise ValueError(f"unknown route {r!r}")


@dataclass
class ResultTable:
    """Per-(n, t) dimension records with route-agreement flags."""

    meta: dict[str, Any]
    rows: list[dict[str, Any]] = field(default_factory=list)

    @property
    def all_agree(self) -> bool:
        return all(r["agree"] for r in self.rows)

    @property
    def any_rank_value(self) -> bool:
        return any(r.get("l_rank") is not None for r in self.rows)

    def payload(self) -> dict[str, Any]:
        return {"meta": self.meta, "rows": self.rows}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse default exits 2; we reserve that
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_n_range(text: str) -> tuple[int, int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        a, b = int(lo), int(hi)
    else:
        a = b = int(text)
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
    if fmt == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    elif fmt == "csv":
        rows = payload.get("rows", [])
        buf = io.StringIO()
        if rows:
            keys = list(rows[0].keys())
            writer = csv.DictWriter(buf, fieldnames=keys)
            writer.writeheader()
            for row in rows:
                writer.writerow(row)
        text = buf.getvalue()
    elif fmt == "markdown":
        rows = payload.get("rows", [])
        if not rows:
            text = "(no rows)\n"
        else:
            keys = list(rows[0].keys())
            lines = ["| " + " | ".join(keys) + " |"]
            lines.append("|" + "|".join(" --- " for _ in keys) + "|")
            for row in rows:
                lines.append("| " + " | ".join(str(row[k]) for k in keys) + " |")
            text = "\n".join(lines) + "\n"
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def compute_dims(config: RunConfig) -> ResultTable:
    """The dimension table for a validated configuration."""
    table = ResultTable(meta=_meta(config.level))
    for n in range(config.n_range[0], config.n_range[1] + 1):
        dims = verify.simple_dims_by_routes(config.level, n, config.routes, config.max_rank_n)
        dimq = verify.dim_q_by_routes(config.level, n, config.routes, config.max_rank_n)
        dim_agree = verify._all_agree(dimq)
        for t in sorted(dims):
            entry = dims[t]
            values = {k: v for k, v in entry.items() if k in ("rank", "altsum", "matrix")}
            agree = verify._all_agree(values) and dim_agree
            if entry.get("closed") is not None:
                agree = agree and verify._all_agree({**values, "closed": entry["closed"]})
            row: dict[str, Any] = {"n": n, "t": t, "w": w_dim(t, n)}
            for route in ("rank", "altsum", "matrix"):
                if route in config.routes:
                    row[f"l_{route}"] = entry.get(route)
            for route in config.routes:
                row[f"dimQ_{route}"] = dimq.get(route)
            row["agree"] = agree
            table.rows.append(row)
    return table


def cmd_dims(args: argparse.Namespace) -> int:
    config = RunConfig(
        level=args.level,
        n_range=_parse_n_range(args.n),
        routes=tuple(r.strip() for r in args.routes.split(",")),
        fmt=args.format,
        out=args.out,
        max_rank_n=args.max_rank_n,
    )
    table = compute_dims(config)
    _emit(table.payload(), config.fmt, config.out)
    if not table.any_rank_value and config.routes == ("rank",):
        return EXIT_RESOURCE
    return EXIT_OK if table.all_agree else EXIT_DISAGREE


def cmd_jw(args: argparse.Namespace) -> int:
    if catalan(args.level - 1) > args.max_terms:
        sys.stderr.write(
            f"E_{args.level - 1} has {catalan(args.level - 1)} diagram terms; "
            f"cap is {args.max_terms}\n"
        )
        return EXIT_RESOURCE
    jw = tlalg.jones_wenzl(args.level)
    e = jw.element
    n = args.level - 1
    field = cyclotomic_field(args.level)
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
    checks = {
        "idempotent": e * e == e,
        "killed_by_generators": all(
            (tlalg.generator(n, i, args.level) * e).is_zero()
            and (e * tlalg.generator(n, i, args.level)).is_zero()
            for i in range(1, n)
        ),
        "identity_coefficient_one": e.coefficient(identity(n)) == field.one,
        "trace_zero": tlalg.jones_trace(e).is_zero(),
    }
    payload = {"meta": _meta(args.level), "rows": rows, "checks": checks}
    _emit(payload, args.format, args.out)
    return EXIT_OK if all(checks.values()) else EXIT_DISAGREE


def cmd_gram_rank(args: argparse.Namespace) -> int:
    lo, hi = _parse_n_range(args.n)
    ns = range(lo, hi + 1)
    if args.kind == "cell" and args.t is not None and not any(args.t in cellrep.admissible_t(n) for n in ns):
        raise ValueError(f"t = {args.t} is admissible for no n in {args.n}")
    rows = []
    all_agree = True
    computed = False
    for n in ns:
        if args.kind == "trace":
            if n > args.max_rank_n:
                continue
            computed = True
            rank = tlalg.trace_gram_rank(args.level, n)
            row = {"n": n, "dim": catalan(n), "rank": rank}
            if n >= args.level - 1:
                ideal = tlalg.ideal_dimension(args.level, n)
                row["ideal_dim"] = ideal
                row["agree"] = rank == catalan(n) - ideal
            else:
                row["agree"] = rank == catalan(n)
            all_agree = all_agree and row["agree"]
            rows.append(row)
        else:
            labels = (
                [args.t]
                if args.t is not None
                else [t for t in cellrep.admissible_t(n)]
            )
            for t in labels:
                if t not in cellrep.admissible_t(n) or n > args.max_rank_n:
                    continue
                computed = True
                rank = cellrep.simple_dim_rank(t, n, args.level)
                row = {"n": n, "t": t, "w": w_dim(t, n), "rank": rank}
                if t % args.level != args.level - 1:
                    alt = cellrep.simple_dim_altsum(t, n, args.level)
                    row["altsum"] = alt
                    row["agree"] = rank == alt
                else:
                    row["agree"] = rank == w_dim(t, n)
                all_agree = all_agree and row["agree"]
                rows.append(row)
    payload = {"meta": _meta(args.level), "rows": rows}
    _emit(payload, args.format, args.out)
    if not computed:
        return EXIT_RESOURCE
    return EXIT_OK if all_agree else EXIT_DISAGREE


def cmd_quotient(args: argparse.Namespace) -> int:
    n_range = _parse_n_range(args.n)
    rows = []
    all_agree = True
    computed = False
    for n in range(n_range[0], n_range[1] + 1):
        values = verify.dim_q_by_routes(
            args.level,
            n,
            ("altsum", "matrix", "closed", "ideal"),
            args.max_rank_n,
            max_ideal_n=args.max_rank_n,
        )
        agree = verify._all_agree(values)
        row = {"n": n, "catalan": catalan(n)}
        row.update({f"dimQ_{k}": v for k, v in values.items()})
        row["agree"] = agree
        rows.append(row)
        all_agree = all_agree and agree
        computed = computed or values.get("ideal") is not None
    payload = {"meta": _meta(args.level), "rows": rows}
    _emit(payload, args.format, args.out)
    if not computed:
        return EXIT_RESOURCE
    return EXIT_OK if all_agree else EXIT_DISAGREE


def cmd_clifford_check(args: argparse.Namespace) -> int:
    n_range = _parse_n_range(args.n)
    report = verify.clifford_suite(max_n=n_range[1], seed=args.seed)
    report["checks"] = [
        c for c in report["checks"] if _check_min_n(c["name"], n_range[0])
    ]
    report["passed"] = all(c["pass"] for c in report["checks"])
    _emit({"meta": _meta(4), "rows": report["checks"], "suite": report["suite"]},
          args.format, args.out)
    return EXIT_OK if report["passed"] else EXIT_DISAGREE


def _check_min_n(name: str, min_n: int) -> bool:
    if not name.startswith("n="):
        return True
    return int(name[2:].split(":", 1)[0]) >= min_n


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
    # A flag goes to each suite whose signature takes it; without --max-n each
    # suite keeps its own default.
    params = inspect.signature(suite).parameters
    flags = {"order": args.K, "level": args.level, "seed": args.seed}
    if args.max_n is not None:
        flags["max_n"] = min(args.max_n, 8) if args.suite == "radical" else args.max_n
    report = suite(**{k: v for k, v in flags.items() if k in params})
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
        p.add_argument("--max-rank-n", type=int, default=12, dest="max_rank_n")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("dims", help="cell and simple dimension tables, multi-route")
    add_common(p, nrange=True)
    p.add_argument("--routes", type=str, default="rank,altsum,matrix,closed")
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("jw", help="print the Jones-Wenzl idempotent and its checks")
    add_common(p)
    p.add_argument("--max-terms", type=int, default=2000, dest="max_terms")
    p.set_defaults(func=cmd_jw)

    p = sub.add_parser("gram-rank", help="Gram matrix ranks (cell or trace form)")
    add_common(p, nrange=True)
    p.add_argument("--t", type=int, default=None, help="restrict to one through-strand label")
    p.add_argument("--kind", choices=("cell", "trace"), default="cell")
    p.set_defaults(func=cmd_gram_rank)

    p = sub.add_parser("quotient", help="dim Q_n(l) by the ideal and closed routes")
    add_common(p, nrange=True)
    p.set_defaults(func=cmd_quotient)

    p = sub.add_parser("clifford-check", help="level-4 Clifford verification block")
    add_common(p, level=False, nrange=True)
    p.set_defaults(func=cmd_clifford_check)

    p = sub.add_parser("catalan", help="generating-function identity checks")
    add_common(p, level=False)
    p.add_argument("--K", type=int, default=12)
    p.set_defaults(func=cmd_catalan)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite", type=str)
    p.add_argument("--level", type=int, default=5)
    p.add_argument("--max-n", type=int, default=None, dest="max_n")
    p.add_argument("--K", type=int, default=12)
    p.add_argument("--seed", type=int, default=0)
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
