#!/usr/bin/env python3
"""Emit the multi-route dimension tables for levels 3..6 as markdown.

Usage: python scripts/dimension_tables.py [max_n] [outdir]

A route past its reach (``tlq.verify.REACH``) shows as None.
"""

from __future__ import annotations

import pathlib
import sys

from tlq import cli


def main() -> int:
    max_n = int(sys.argv[1]) if len(sys.argv) > 1 else 10
    outdir = pathlib.Path(sys.argv[2]) if len(sys.argv) > 2 else pathlib.Path("tables")
    outdir.mkdir(parents=True, exist_ok=True)
    worst = 0
    for level in (3, 4, 5, 6):
        lo = max(1, level - 2)
        target = outdir / f"dims_level{level}.md"
        code = cli.main(
            [
                "dims",
                "--level",
                str(level),
                "--n",
                f"{lo}..{max_n}",
                "--format",
                "markdown",
                "--out",
                str(target),
            ]
        )
        print(f"level {level}: wrote {target} (exit {code})")
        worst = max(worst, code)
        target = outdir / f"quotient_level{level}.md"
        code = cli.main(
            [
                "quotient",
                "--level",
                str(level),
                "--n",
                f"{max(2, level - 1)}..{max_n}",
                "--format",
                "markdown",
                "--out",
                str(target),
            ]
        )
        print(f"level {level}: wrote {target} (exit {code})")
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
