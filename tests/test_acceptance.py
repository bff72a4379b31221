"""Acceptance criteria, one test per criterion.

Every numerical claim is verified exactly (zero tolerance) by at least two
independent computational routes; each test prints one PASS/FAIL line with
its runtime and asserts the stated budget.
"""

from __future__ import annotations

import time

from tlq import verify
from tlq.combinatorics import (
    F_closed,
    catalan,
    catalan_by_convolution,
    series_identities,
    w_recursive,
)
from tlq.diagram import monic_pairings


def _finish(name: str, ok: bool, started: float, budget: float, detail: str = ""):
    elapsed = time.perf_counter() - started
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}: {elapsed:.1f}s (budget {budget:.0f}s) {detail}")
    assert ok, f"{name} failed: {detail}"
    assert elapsed < budget, f"{name} exceeded its runtime budget ({elapsed:.1f}s)"


def test_criterion_01_cell_dimension_closed_form():
    """Enumeration = recursion = binomial closed form for all t+2k <= 16."""
    t0 = time.perf_counter()
    ok = True
    detail = ""
    for total in range(0, 17):
        for t in range(total % 2, total + 1, 2):
            k = (total - t) // 2
            counted = len(monic_pairings(t, total))
            if not (counted == w_recursive(t, k) == F_closed(t, k)):
                ok = False
                detail = f"mismatch at (t={t}, k={k})"
    _finish("criterion 1 (cell dimension closed form)", ok, t0, 10)


def test_criterion_02_generating_function_identities():
    """The four series identities at truncation order 12."""
    t0 = time.perf_counter()
    report = series_identities(12)
    ok = all(report.values())
    ok = ok and all(catalan(n) == catalan_by_convolution(n) for n in range(13))
    _finish("criterion 2 (generating functions, K=12)", ok, t0, 5, str(report))


def test_criterion_03_jones_wenzl():
    """Closed-formula idempotents for levels 3..8: all defining properties,
    the recursion oracle, and the verbatim small-level coefficients."""
    t0 = time.perf_counter()
    report = verify.jw_suite(levels=(3, 4, 5, 6, 7, 8))
    failed = [c["name"] for c in report["checks"] if not c["pass"]]
    _finish("criterion 3 (Jones-Wenzl, levels 3..8)", report["passed"], t0, 60, str(failed))


def test_criterion_04_ising_dimensions():
    """Level 4 for n = 3..12: Gram-rank dimensions are the power-of-two
    pattern and the squares sum to 2^(n-1)."""
    t0 = time.perf_counter()
    report = verify.ising_suite(max_n=12)
    failed = [c["name"] for c in report["checks"] if not c["pass"]]
    _finish("criterion 4 (Ising pattern, n <= 12)", report["passed"], t0, 300, str(failed))


def test_criterion_05_clifford():
    """Level-4 Clifford block for n = 3..8: relations, kernel, image
    dimension, trace correspondence, so(n) commutators."""
    t0 = time.perf_counter()
    report = verify.clifford_suite(max_n=8, seed=2025)
    failed = [c["name"] for c in report["checks"] if not c["pass"]]
    _finish("criterion 5 (Clifford, n <= 8)", report["passed"], t0, 120, str(failed))


def test_criterion_06_fibonacci():
    """Level 5 for n = 4..12: dim Q_n(5) = F_{2n-1} by every enabled route,
    plus the matrix bridge identities through n = 15."""
    t0 = time.perf_counter()
    report = verify.fibonacci_suite(max_n=12, bridge_n=15)
    failed = [c["name"] for c in report["checks"] if not c["pass"]]
    _finish("criterion 6 (Fibonacci, n <= 12)", report["passed"], t0, 120, str(failed))


def test_criterion_07_level6():
    """Level 6 for n = 2..10: the (3^m +- 1)/2 patterns and
    dim Q_n(6) = (3^(n-1)+1)/2."""
    t0 = time.perf_counter()
    report = verify.level6_suite(max_n=10)
    failed = [c["name"] for c in report["checks"] if not c["pass"]]
    _finish("criterion 7 (level 6, n <= 10)", report["passed"], t0, 120, str(failed))


def test_criterion_08_radical_identity():
    """Levels 4, 5, 6 for n <= 8: rank of the trace Gram matrix equals
    C(n) - dim<E> equals the sum of squared simple dimensions, and the form
    is nondegenerate exactly when n <= level-2."""
    t0 = time.perf_counter()
    report = verify.radical_suite(levels=(4, 5, 6), max_n=8)
    failed = [c["name"] for c in report["checks"] if not c["pass"]]
    _finish("criterion 8 (radical identity, n <= 8)", report["passed"], t0, 600, str(failed))


def test_criterion_09_classification():
    """Annihilation of the cell module by the idempotent happens exactly for
    t <= level-2, for levels 4, 5, 6 and n <= 10."""
    t0 = time.perf_counter()
    report = verify.classification_suite(levels=(4, 5, 6), max_n=10)
    failed = [c["name"] for c in report["checks"] if not c["pass"]]
    _finish("criterion 9 (classification, n <= 10)", report["passed"], t0, 120, str(failed))


def test_criterion_10_level3_quotient():
    """dim Q_n(3) = 1 for n = 2..8, by the ideal route."""
    t0 = time.perf_counter()
    report = verify.q3_suite(max_n=8)
    failed = [c["name"] for c in report["checks"] if not c["pass"]]
    _finish("criterion 10 (level 3 quotient, n <= 8)", report["passed"], t0, 60, str(failed))


def test_criterion_11_property_suites():
    """Randomized property suites at a fixed seed: field axioms,
    associativity of diagram/blade/TL products, trace symmetry, rank
    pivot-order independence; at least 200 cases each."""
    t0 = time.perf_counter()
    report = verify.properties_suite(seed=2025, cases=200)
    failed = [c["name"] for c in report["checks"] if not c["pass"]]
    _finish("criterion 11 (property suites)", report["passed"], t0, 300, str(failed))
