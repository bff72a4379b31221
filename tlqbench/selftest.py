"""Self-test of the benchmark itself (not of tlq).

    python3 tlqbench/selftest.py

1. A run with one injected wrong answer must report fail_frac > 0, print
   ``"correct": false`` and exit nonzero.
2. The metric names and units run.py reports must match BENCHMARK.json.
3. The tracer, installed in this process, must reach every span the
   workloads rely on, and its self times must add up to the traced wall.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check_injected_fault() -> None:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "algebra", "--seed", "0",
         "--seconds", "1", "--trace", "0", "--inject-fault"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    fail_frac = next(float(line.split()[2]) for line in lines if " fail_frac " in line)
    assert proc.returncode == 1, proc.returncode
    assert result["correct"] is False and result["failed"] >= 1, result
    assert fail_frac > 0, fail_frac


def check_metric_names() -> None:
    sys.path.insert(0, str(HERE))
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["unit"] for m in spec["end_to_end"]] == list(run.END_TO_END.values())
    assert [m["name"] for m in spec["per_layer"]] == run.reported_layer_metrics()
    assert [w["name"] for w in spec["workloads"]] == list(run.workload_jobs.WORKLOADS)


def check_tracer() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from tlq import cellrep, tlalg
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.start()
    tlalg.ideal_dimension(3, 6)
    e = tlalg.jones_wenzl(4).element
    tlalg.jones_trace(e * e)
    cellrep.simple_dim_rank(1, 11, 5)
    tracer.stop()
    report = tracer.report()
    spans = report["spans"]
    for name in ("diagram.compose_pairings", "diagram.closure_loops", "diagram.Diagram.validate",
                 "exactnum.CycNum.mul", "exactnum.CycNum.add", "exactnum.CycNum.inverse",
                 "exactnum.ExactMatrix.rank", "intlinalg.gfp_fresh", "intlinalg.gfp_incremental",
                 "intlinalg.modp_rank_with_pivots", "intlinalg.dixon_solve",
                 "intlinalg.verify_product_identity", "intlinalg.certified_rank",
                 "tlalg.TLElement.mul", "tlalg.jones_trace", "tlalg.radical_split",
                 "tlalg.ideal_dimension", "cellrep.simple_dim_rank"):
        assert spans[name]["calls"] > 0, name
    assert report["counters"]["intlinalg.primes_tried"] >= 2
    attributed = sum(s["self_s"] for s in spans.values())
    assert abs(attributed + report["unattributed_s"] - report["wall_s"]) < 1e-6


def main() -> None:
    check_metric_names()
    check_tracer()
    check_injected_fault()
    print("selftest ok")


if __name__ == "__main__":
    main()
