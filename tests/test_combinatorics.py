"""Dimension combinatorics: tables, closed forms, generating functions."""

from __future__ import annotations

import pytest

from tlq import combinatorics, verify
from tlq.combinatorics import (
    F_closed,
    SeriesZ,
    catalan,
    catalan_by_convolution,
    catalan_series,
    fibonacci,
    series_identities,
    two_step_recursion_check,
    w_dim,
    w_recursive,
    w_row_series,
)
from tlq.diagram import monic_pairings


def test_w_base_rows():
    assert all(w_recursive(t, 0) == 1 for t in range(20))
    assert w_recursive(0, 0) == 1  # the intentional convention override
    assert all(w_recursive(t, 1) == t + 1 for t in range(1, 20))
    assert w_recursive(1, 1) == 2
    assert w_recursive(0, 3) == 5
    assert w_recursive(-1, 5) == 0 and w_recursive(3, -1) == 0


def test_w_dim_support():
    assert w_dim(2, 4) == 3
    assert w_dim(1, 5) == 5
    assert w_dim(5, 3) == 0
    assert w_dim(1, 4) == 0  # parity
    assert w_dim(-2, 4) == 0


def test_F_examples():
    assert F_closed(2, 1) == 3
    assert all(F_closed(t, 0) == 1 for t in range(20))
    assert all(F_closed(0, k) == catalan(k) for k in range(20))
    assert F_closed(-1, 3) == 0 and F_closed(3, -1) == 0


def test_w_equals_F_equals_enumeration_small():
    for t in range(0, 9):
        for k in range(0, 5):
            assert w_recursive(t, k) == F_closed(t, k)
            if t + 2 * k <= 12:
                assert w_recursive(t, k) == len(monic_pairings(t, t + 2 * k))


def test_catalan():
    assert catalan(0) == 1
    assert catalan(3) == 5
    assert catalan(4) == 14
    assert len(monic_pairings(0, 6)) == 5
    for n in range(15):
        assert catalan(n) == catalan_by_convolution(n)
    # Arbitrary precision: past the 64-bit range.
    assert catalan(40) == 2622127042276492108820


def test_series_truncation_ring():
    x = SeriesZ.x(5)
    one = SeriesZ.one(5)
    assert (one + x) * (one - x) == SeriesZ(5, [1, 0, -1])
    assert (x * x * x * x * x * x).is_zero()  # truncated away


def test_series_identities_small_order():
    report = series_identities(1)
    assert all(report.values())
    c = catalan_series(1)
    assert c == SeriesZ(1, [1, 1])


def test_series_identities_order_8_with_enumeration_anchors():
    report = series_identities(8)
    assert all(report.values())
    c = catalan_series(8)
    c2 = c * c
    # coefficient of x^3 in c(x)^2 is w(1,3), the count of monic 1 -> 7.
    assert c2.coeffs[3] == w_recursive(1, 3) == len(monic_pairings(1, 7)) == 14
    # row series coefficient [t=2, k=1] is w(2,1), the count of monic 2 -> 4.
    assert w_row_series(2, 8).coeffs[1] == len(monic_pairings(2, 4)) == 3


def test_two_step_recursion():
    assert two_step_recursion_check(12, 12)
    assert w_dim(0, 4) == w_dim(0, 2) + w_dim(2, 2) == 2
    assert w_dim(2, 6) == w_dim(0, 4) + 2 * w_dim(2, 4) + w_dim(4, 4) == 9
    assert w_dim(2, 6) == len(monic_pairings(2, 6))
    assert w_dim(1, 5) == 2 * w_dim(1, 3) + w_dim(3, 3) == 5


def test_fibonacci():
    assert [fibonacci(k) for k in range(1, 9)] == [1, 1, 2, 3, 5, 8, 13, 21]
    with pytest.raises(ValueError):
        fibonacci(0)


def test_catalan_suite_counts_odd_strand_counts(monkeypatch):
    real = combinatorics.F_closed
    # Wrong at one odd total t + 2k = 7 only.
    monkeypatch.setattr(combinatorics, "F_closed", lambda t, k: real(t, k) + ((t, k) == (1, 3)))
    report = verify.catalan_suite()
    check = next(c for c in report["checks"] if c["name"] == "enumeration = recursion = closed form")
    assert not check["pass"] and check["detail"] == "(t=1, k=3)"
    assert report["passed"] is False
