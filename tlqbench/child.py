"""One cold workload process.

Imports tlq from the checkout's ``src``, prints ``ready``, reads its job list
(JSON) from stdin, runs every job through the public tlq API and prints one
JSON line with the answers and the wall time from the end of the input to
the last answer.  With ``--trace 1`` the layer spans are installed first and
their statistics are added to the output.

    python3 tlqbench/child.py --trace 0 < jobs.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-fault", action="store_true",
                        help="corrupt the first answer (for the self-test)")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import tlq

    if not Path(tlq.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"imported tlq from {tlq.__file__}, not from {SRC}")
    print("ready", flush=True)

    jobs = json.load(sys.stdin)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.start()
    start = time.perf_counter()
    answers = [run_job(job) for job in jobs]
    wall_s = time.perf_counter() - start
    if tracer is not None:
        tracer.stop()
    if args.inject_fault and answers:
        answers[0] = _perturb(answers[0])
    print(json.dumps({
        "wall_s": wall_s,
        "answers": answers,
        "trace": tracer.report() if tracer is not None else None,
    }))


def run_job(job: dict):
    """The answer of one job; an ``ArithmeticError`` is returned, not raised."""
    from tlq import cellrep, tlalg, verify

    kind, level = job["kind"], job["level"]
    try:
        if kind == "jw":
            return verify.jw_suite((level,))["passed"]
        if kind == "product":
            a = _element(level, job["n"], job["a"])
            b = _element(level, job["n"], job["b"])
            return [_cyc(tlalg.jones_trace(a * b)), _cyc(tlalg.jones_trace(b * a))]
        if kind == "radical":
            split = tlalg.radical_split(level, job["n"])
            return [split.gram_rank, split.ideal_dim]
        if kind == "ideal":
            return tlalg.ideal_dimension(level, job["n"])
        if kind == "cell":
            return cellrep.simple_dim_rank(job["t"], job["n"], level)
    except ArithmeticError as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    raise ValueError(f"unknown job kind {kind!r}")


def _element(level: int, n: int, terms: list):
    from tlq import diagram, exactnum, tlalg

    field = exactnum.cyclotomic_field(level)
    basis = diagram.tl_pairings(n)
    return tlalg.TLElement(n, field, {
        diagram.Diagram(n, n, basis[index]): field.from_coeffs(den, num)
        for index, den, num in terms
    })


def _cyc(x) -> list:
    return [x.den, list(x.num)]


def _perturb(answer):
    """A wrong answer of the same shape."""
    if isinstance(answer, bool):
        return not answer
    if isinstance(answer, int):
        return answer + 1
    if isinstance(answer, list) and answer:
        return [_perturb(answer[0])] + answer[1:]
    return {"error": "injected fault"}


if __name__ == "__main__":
    main()
