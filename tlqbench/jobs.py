"""Workload inputs made from a seed, and the answer checks.

The checks run in the parent process, outside the timed region, and reach each
answer by a route independent of the one the child process used.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("algebra", "radical", "cellrank")

# algebra: Jones-Wenzl suites plus random sparse products in TL_6.
JW_LEVELS = range(3, 8)
PRODUCT_LEVELS = range(3, 9)
PRODUCT_N = 6
PRODUCTS_PER_LEVEL = 32
TERMS_PER_ELEMENT = 20
# radical: the radical identity for levels 4..6 and dim Q_n(3) = 1.
RADICAL_JOBS = tuple(
    (level, n) for level in (4, 5, 6) for n in range(level - 1, 7)
) + ((6, 7),)
IDEAL_N = range(2, 8)
# cellrank: every admissible cell of these (level, n).  Level 6 stops at
# n = 10: its n = 11 cells took 60% of a child, and a 3-4 s child lets one
# run take the median of about ten children instead of four.
CELL_JOBS = tuple((5, n) for n in range(2, 12)) + ((6, 10),)


def make_jobs(workload: str, seed: int) -> list[dict]:
    """The job list of one workload; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "algebra":
        jobs = [{"kind": "jw", "level": level, "n": level - 1} for level in JW_LEVELS]
        for level in PRODUCT_LEVELS:
            degree = _totient(2 * level)
            for _ in range(PRODUCTS_PER_LEVEL):
                jobs.append({
                    "kind": "product",
                    "level": level,
                    "n": PRODUCT_N,
                    "a": _random_element(rng, degree),
                    "b": _random_element(rng, degree),
                })
    elif workload == "radical":
        jobs = [{"kind": "radical", "level": l, "n": n} for l, n in RADICAL_JOBS]
        jobs += [{"kind": "ideal", "level": 3, "n": n} for n in IDEAL_N]
    elif workload == "cellrank":
        jobs = [
            {"kind": "cell", "level": level, "n": n, "t": t}
            for level, n in CELL_JOBS
            for t in range(n % 2, n + 1, 2)
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    # Shuffle within each strand count only.  The largest tables are built
    # last on every seed, so the peak memory does not depend on which caches
    # happen to be resident; a full shuffle moved peak RSS by 7% by seed.
    rng.shuffle(jobs)
    jobs.sort(key=lambda job: job["n"])
    return jobs


def _random_element(rng: random.Random, degree: int) -> list:
    """Terms [basis index, denominator, numerator coefficients] of a random
    element of TL_6 with a fixed number of distinct diagrams."""
    terms = []
    for index in rng.sample(range(_catalan(PRODUCT_N)), TERMS_PER_ELEMENT):
        num = [rng.randint(-3, 3) for _ in range(degree)]
        if not any(num):
            num[0] = 1
        terms.append([index, rng.randint(1, 3), num])
    return terms


def _totient(m: int) -> int:
    return sum(1 for k in range(1, m + 1) if math.gcd(k, m) == 1)


def _catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def check(job: dict, answer) -> bool:
    """True when the answer is right.  A raised error is never right."""
    from tlq.cellrep import quotient_labels, simple_dim_altsum
    from tlq.combinatorics import w_dim

    if isinstance(answer, dict) and "error" in answer:
        return False
    kind, level, n = job["kind"], job["level"], job["n"]
    if kind == "jw":
        return answer is True
    if kind == "product":
        # Trace symmetry tr(ab) = tr(ba), both reported as [den, num].
        return len(answer) == 2 and answer[0] == answer[1]
    if kind == "radical":
        gram_rank, ideal_dim = answer
        semisimple = sum(simple_dim_altsum(t, n, level) ** 2 for t in quotient_labels(level, n))
        return gram_rank == semisimple and gram_rank == _catalan(n) - ideal_dim
    if kind == "ideal":
        return _catalan(n) - answer == 1
    if kind == "cell":
        t = job["t"]
        if t % level == level - 1:
            return answer == w_dim(t, n)
        return answer == simple_dim_altsum(t, n, level)
    raise ValueError(f"unknown job kind {kind!r}")
