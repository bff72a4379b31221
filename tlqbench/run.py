"""The tlq benchmark: the parent process that runs and checks the children.

    python3 tlqbench/run.py --workload radical --seed 1 --seconds 42 --trace 0

Every measurement is a fresh child process (``child.py``), started one at a
time, that imports tlq from this checkout's ``src`` and calls its public API
on jobs made here from ``--seed``.  Runs are cold on purpose: a command-line
user pays the engine's unbounded caches on every invocation.

``--trace 0`` reports the end-to-end metrics, medians over the children of
one run.  ``--trace 1`` alternates untraced and traced children and reports
the per-layer metrics; every count must repeat exactly between the traced
children.  Answers are checked here, outside the timed region.  The
last line of stdout is one JSON object; the exit code is 1 on a wrong answer
and 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import jobs as workload_jobs
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"

# Children that only import tlq, so that setup_s is a median of several.
SETUP_PROBES = 20
# A run stops starting children here, so that it ends within 180 s.
HARD_LIMIT_S = 150.0
MIN_TRACED_CHILDREN = 2
# One BLAS thread in every child (and in this process, whose numpy reports
# it in the metadata).  On a VM of two cores shared with other tenants,
# two BLAS threads stall whenever either core is taken away; that made one
# child's wall time spread by a third from run to run.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Per-layer self times that are never zero on any workload; the self time of
# a layer that a workload does not use reads 0 on every run, so those are
# printed in the table but reported only through their module's self_frac.
REPORTED_SELF_S = (
    "diagram.compose_pairings",
    "exactnum.CycNum.mul",
    "exactnum.CycNum.add",
    "exactnum.CycNum.inverse",
)
MODULES = ("diagram", "exactnum", "intlinalg", "tlalg", "cellrep")


class BenchmarkError(Exception):
    """The benchmark could not run (as opposed to a wrong answer)."""


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workload_jobs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-fault", action="store_true",
                        help="make the first child return one wrong answer (self-test)")
    args = parser.parse_args()
    if not (SRC / "tlq" / "__init__.py").is_file():
        print(f"error: no tlq sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.update(BLAS_ENV)
    try:
        return run(args)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run(args) -> int:
    started = time.perf_counter()
    jobs = workload_jobs.make_jobs(args.workload, args.seed)
    payload = json.dumps(jobs).encode()
    print(f"meta {json.dumps(metadata(args))}")

    def time_left() -> float:
        return HARD_LIMIT_S - (time.perf_counter() - started)

    def room_for_another(children: list[dict]) -> bool:
        elapsed = time.perf_counter() - started
        typical = statistics.median(c["elapsed_s"] for c in children)
        return elapsed + typical <= min(args.seconds, HARD_LIMIT_S)

    setups = [spawn(b"[]", False, False, time_left())["setup_s"] for _ in range(SETUP_PROBES)]
    children = [spawn(payload, False, args.inject_fault, time_left())]
    traced: list[dict] = []
    if args.trace:
        # Alternate traced and untraced children, so that drift in the
        # machine's speed cancels out of the tracing overhead.
        while True:
            traced.append(spawn(payload, True, False, time_left()))
            if len(traced) >= MIN_TRACED_CHILDREN and not room_for_another(children + traced):
                break
            children.append(spawn(payload, False, False, time_left()))
    else:
        while room_for_another(children):
            children.append(spawn(payload, False, False, time_left()))

    attempted = failed = 0
    for child in children + traced:
        for job, answer in zip(jobs, child["answers"], strict=True):
            attempted += 1
            if not workload_jobs.check(job, answer):
                failed += 1
                print(f"WRONG {args.workload} {json.dumps(job)[:200]} -> {json.dumps(answer)[:200]}")
    setups += [c["setup_s"] for c in children + traced]

    untraced = {name: [c[name] for c in children] for name in ("wall_s", "cpu_s", "peak_rss_mb")}
    untraced["setup_s"] = setups
    for name, unit in END_TO_END.items():
        print(f"{args.workload} {name} {summary(untraced[name])} {unit}")
    print(f"{args.workload} fail_frac {failed / attempted:.6g} "
          f"({failed} of {attempted} jobs in {len(children) + len(traced)} processes)")

    if args.trace:
        layers = layer_metrics([c["trace"] for c in traced], statistics.median(untraced["wall_s"]))
        for name, (value, unit) in layers.items():
            print(f"{args.workload} {name} {value:.6g} {unit}")
        for name, value in design_checks(args.workload, layers).items():
            print(f"{args.workload} design.{name} {'ok' if value else 'NOT MET'}")
        metrics = {
            name: {"value": layers[name][0], "unit": layers[name][1]}
            for name in reported_layer_metrics()
        }
    else:
        metrics = {
            name: {"value": statistics.median(untraced[name]), "unit": unit}
            for name, unit in END_TO_END.items()
        }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


def spawn(payload: bytes, trace: bool, inject_fault: bool, budget_s: float) -> dict:
    """Run one child to completion; returns its timings, answers and trace."""
    if budget_s <= 0:
        raise BenchmarkError("out of time before the run ended")
    cmd = [sys.executable, str(CHILD), "--trace", str(int(trace))]
    if inject_fault:
        cmd.append("--inject-fault")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT)
    watchdog = threading.Timer(budget_s, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        try:
            proc.stdin.write(payload)
            proc.stdin.close()
        except BrokenPipeError:
            pass
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        watchdog.cancel()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    elapsed_s = time.perf_counter() - t0
    if ready.strip() != b"ready" or proc.returncode != 0:
        raise BenchmarkError(f"child exited with code {proc.returncode} (timeout {budget_s:.0f} s)")
    result = json.loads(out.decode().strip().splitlines()[-1])
    return {
        "setup_s": setup_s,
        "elapsed_s": elapsed_s,
        "wall_s": result["wall_s"],
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "answers": result["answers"],
        "trace": result["trace"],
    }


def summary(values: list[float]) -> str:
    median = statistics.median(values)
    if len(values) < 2:
        return f"{median:.6g} (1 sample)"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{median:.6g} (median of {len(values)}, quartiles {q1:.6g}..{q3:.6g})"


def layer_metrics(reports: list[dict], untraced_wall_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the traced children: counts, which must repeat
    exactly, and median self times."""
    counts = [_counts(r) for r in reports]
    for other in counts[1:]:
        diff = sorted(k for k in counts[0] if counts[0][k] != other[k])
        if diff:
            raise BenchmarkError(
                "a count differs between runs of one seed (cache leak or "
                f"nondeterminism): {', '.join(f'{k} {counts[0][k]} vs {other[k]}' for k in diff)}"
            )
    out: dict[str, tuple[float, str]] = {}
    for name, value in counts[0].items():
        out[name] = (value, "count")

    def median_of(get) -> float:
        return statistics.median(get(r) for r in reports)

    for name in tracer.SPAN_NAMES:
        out[f"{name}.self_s"] = (median_of(lambda r: r["spans"][name]["self_s"]), "s")
    c = counts[0]
    rows_in = c["intlinalg.gfp_fresh.rows_in"] + c["intlinalg.gfp_incremental.rows_in"]
    pivots = c["intlinalg.gfp_fresh.pivots"] + c["intlinalg.gfp_incremental.pivots"]
    out["intlinalg.gfp.useful_ratio"] = (pivots / rows_in if rows_in else 0.0, "ratio")
    ranks = c["intlinalg.certified_rank.calls"]
    out["intlinalg.certified_rank.lifted_frac"] = (
        c["intlinalg.certified_rank.lifted"] / ranks if ranks else 0.0, "ratio")
    traced_wall = median_of(lambda r: r["wall_s"])
    for module in MODULES:
        out[f"{module}.self_frac"] = (median_of(lambda r: sum(
            s["self_s"] for n, s in r["spans"].items() if n.startswith(module + ".")
        ) / r["wall_s"]), "ratio")
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.attributed_frac"] = (median_of(lambda r: 1 - r["unattributed_s"] / r["wall_s"]), "ratio")
    out["trace.overhead_frac"] = (traced_wall / untraced_wall_s - 1, "ratio")
    return out


def _counts(report: dict) -> dict[str, int]:
    out = {}
    for name, stat in report["spans"].items():
        for key in tracer.COUNT_STATS:
            if key in stat:
                out[f"{name}.{key}"] = stat[key]
    out.update(report["counters"])
    return out


def reported_layer_metrics() -> list[str]:
    """The per-layer metrics of the result line, in BENCHMARK.json order."""
    names = []
    for span in tracer.SPAN_NAMES:
        names.append(f"{span}.calls")
        if span in tracer.GFP_SPANS:
            names += [f"{span}.rows_in", f"{span}.pivots"]
        if span in REPORTED_SELF_S:
            names.append(f"{span}.self_s")
    names += ["intlinalg.gfp.useful_ratio", "intlinalg.certified_rank.lifted_frac",
              "intlinalg.primes_tried", "intlinalg.retries"]
    names += [f"{m}.self_frac" for m in MODULES]
    names += ["trace.wall_s", "trace.attributed_frac", "trace.overhead_frac"]
    return names


def design_checks(workload: str, m: dict[str, tuple[float, str]]) -> dict[str, bool]:
    """The workload design the traced run must confirm."""
    def v(name: str) -> float:
        return m[name][0]

    if workload == "algebra":
        return {
            "no_gfp_calls": v("intlinalg.gfp_fresh.calls") + v("intlinalg.gfp_incremental.calls") == 0,
            "no_dixon_calls": v("intlinalg.dixon_solve.calls") == 0,
            "exactnum_diagram_tlalg_ge_half": v("exactnum.self_frac") + v("diagram.self_frac") + v("tlalg.self_frac") >= 0.5,
        }
    if workload == "radical":
        gfp = sum(v(f"{s}.self_s") for s in tracer.GFP_SPANS)
        return {
            "no_dixon_calls": v("intlinalg.dixon_solve.calls") == 0,
            "gfp_ge_half": gfp >= 0.5 * v("trace.wall_s"),
        }
    lift = v("intlinalg.dixon_solve.self_s") + v("intlinalg.verify_product_identity.self_s")
    return {"lifting_ge_third": lift >= v("trace.wall_s") / 3}


def metadata(args) -> dict:
    """Where and on what the numbers were measured."""
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": _blas(numpy),
        "git_commit": _git_commit(),
        "src_tlq_lines": sum(
            len(p.read_text().splitlines()) for p in sorted((SRC / "tlq").glob("*.py"))
        ),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas(numpy) -> dict:
    info = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError):
        pass
    info["threads"] = None
    for path in glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                break
    info["OPENBLAS_NUM_THREADS"] = os.environ.get("OPENBLAS_NUM_THREADS")
    return info


def _git_commit() -> str | None:
    # An exported checkout has no .git; never report an enclosing repository.
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


if __name__ == "__main__":
    sys.exit(main())
