"""Recursion matrices and closed dimension formulas for the quotients."""

from __future__ import annotations

import pytest

from tlq import verify
from tlq.cellrep import quotient_labels, simple_dim_rank
from tlq.combinatorics import catalan, fibonacci, w_dim
from tlq.quotientdim import (
    _mat_mul,
    dim_q,
    dim_q_closed,
    dims_by_matrix,
    fibonacci_bridge,
    one_step,
    one_step_matrix,
    parity_labels,
    recursion_matrix,
    seed_vectors,
    simple_dims_closed,
    two_step,
)
from tlq.tlalg import ideal_dimension
from tlq.verify import agree, routes_at


def test_recursion_matrix_shapes():
    assert recursion_matrix("11", 2) == [[1, 1], [1, 1]]
    assert recursion_matrix("22", 1) == [[2]]
    assert recursion_matrix("12", 2) == [[1, 1], [1, 2]]
    assert recursion_matrix("21", 2) == [[2, 1], [1, 1]]
    assert recursion_matrix("11", 3) == [[1, 1, 0], [1, 2, 1], [0, 1, 1]]
    m = recursion_matrix("22", 4)
    assert m[0][0] == m[3][3] == 2 and m[1][1] == m[2][2] == 2
    assert all(m[i][j] == m[j][i] for i in range(4) for j in range(4))
    with pytest.raises(ValueError):
        recursion_matrix("12", 1)
    with pytest.raises(ValueError):
        recursion_matrix("xx", 3)


def test_two_step_special_levels():
    assert two_step(4) == {0: [[1, 1], [1, 1]], 1: [[2]]}
    assert two_step(5) == {0: [[1, 1], [1, 2]], 1: [[2, 1], [1, 1]]}
    assert two_step(6) == {
        0: [[1, 1, 0], [1, 2, 1], [0, 1, 1]],
        1: [[2, 1], [1, 2]],
    }


@pytest.mark.parametrize("level", range(4, 11))
def test_two_step_is_restricted_square_of_one_step(level):
    t = one_step_matrix(level)
    t2 = _mat_mul(t, t)
    for parity in (0, 1):
        idx = [x for x in range(level - 1) if x % 2 == parity]
        restricted = [[t2[a][b] for b in idx] for a in idx]
        assert two_step(level)[parity] == restricted
        assert idx == list(parity_labels(level, parity))


def test_one_step_example():
    # level 4: (l_0, l_1, l_2)(4) = (2, 0, 2) steps to (0, 4, 0) at n = 5.
    assert one_step(4, [2, 0, 2]) == [0, 4, 0]
    # level 5 boundary rows: l_3(n+1) = l_2(n) and l_0(n+1) = l_1(n).
    vec = one_step(5, [3, 0, 5, 0])
    assert vec[0] == 0 and vec[3] == 5
    vec = one_step(5, [0, 7, 0, 2])
    assert vec[0] == 7


def test_seed_vectors_match_cell_dimensions():
    for level in range(4, 11):
        seeds = seed_vectors(level)
        even_n = level - 2 if level % 2 == 0 else level - 3
        odd_n = level - 3 if level % 2 == 0 else level - 2
        assert seeds[0] == [w_dim(t, even_n) for t in parity_labels(level, 0)]
        assert seeds[1] == [w_dim(t, odd_n) for t in parity_labels(level, 1)]
    assert seed_vectors(6) == {0: [2, 3, 1], 1: [2, 1]}


def test_dims_by_matrix_values():
    assert dims_by_matrix(4, 4) == {0: 2, 2: 2}
    assert dims_by_matrix(4, 5) == {1: 4}
    assert dims_by_matrix(5, 4) == {0: 2, 2: 3}
    assert dims_by_matrix(5, 5) == {1: 5, 3: 3}
    assert dims_by_matrix(6, 6) == {0: 5, 2: 9, 4: 4}
    assert dims_by_matrix(6, 7) == {1: 14, 3: 13}


def test_dims_by_matrix_against_gram_ranks():
    for level in (4, 5, 6):
        for n in range(level - 2, 13):
            dims = dims_by_matrix(level, n)
            for t, want in dims.items():
                if t <= n:
                    assert simple_dim_rank(t, n, level) == want, (level, n, t)
                else:
                    assert want == 0


def test_closed_form_dims():
    for n in range(3, 13):
        assert simple_dims_closed(4, n) == dims_by_matrix(4, n)
        assert simple_dims_closed(5, n) == dims_by_matrix(5, n)
        assert simple_dims_closed(6, n) == dims_by_matrix(6, n)
    for level, n in ((4, 0), (5, 1), (6, 0)):
        with pytest.raises(ValueError):
            simple_dims_closed(level, n)


def test_dim_q_routes_and_closed_forms():
    for n in range(3, 13):
        assert dim_q(4, n) == 2 ** (n - 1)
        assert dim_q(5, n) == fibonacci(2 * n - 1)
        assert dim_q(6, n) == (3 ** (n - 1) + 1) // 2
        for level in (4, 5, 6):
            # The seed quadratic form against the squares of the matrix route.
            assert dim_q(level, n) == sum(v * v for v in dims_by_matrix(level, n).values())
            assert dim_q(level, n) == routes_at(level, n, ("altsum",))[1]["altsum"]
            assert dim_q(level, n) == dim_q_closed(level, n)
    assert dim_q_closed(3, 9) == 1
    with pytest.raises(ValueError):
        dim_q_closed(7, 5)
    with pytest.raises(ValueError):
        dim_q_closed(6, 1)


def test_dim_q_against_ideal_route():
    for level in (4, 5, 6):
        for n in range(level - 1, 7):
            assert dim_q(level, n) == catalan(n) - ideal_dimension(level, n)


def test_sum_of_squares_identity():
    for level in (4, 5, 6):
        for n in range(level - 1, 11):
            dims = dims_by_matrix(level, n)
            assert dim_q(level, n) == sum(v * v for v in dims.values())
            assert set(t for t, v in dims.items() if t <= n) >= set(
                quotient_labels(level, n)
            )


def test_fibonacci_bridge():
    assert fibonacci_bridge(1) == (1, 1)
    assert fibonacci_bridge(2) == (3, 2)
    for n in range(1, 16):
        a, b = fibonacci_bridge(n)
        assert a == fibonacci(2 * n)
        assert b == fibonacci(2 * n - 1)
        assert fibonacci_bridge(2 * n)[1] == a * a + b * b
    with pytest.raises(ValueError):
        fibonacci_bridge(0)


def test_one_step_recurrence_on_altsum_tables():
    # The three branch identities, on tables built purely from the
    # alternating sums.
    from tlq.cellrep import simple_dim_altsum

    for level in range(4, 11):
        def l(t, n):
            if t < 0 or t > n or (n - t) % 2 or t % level == level - 1:
                return 0
            return simple_dim_altsum(t, n, level)

        for n in range(level - 1, 14):
            for t in range(0, level - 1):
                if (n + 1 - t) % 2:
                    continue
                lhs = l(t, n + 1)
                if t == 0:
                    assert lhs == l(1, n)
                elif t == level - 2:
                    assert lhs == l(level - 3, n)
                else:
                    assert lhs == l(t - 1, n) + l(t + 1, n)


@pytest.mark.parametrize("level", [3, 4, 5, 6])
def test_routes_at_agree_and_reach(monkeypatch, level):
    monkeypatch.setitem(verify.REACH, "rank", 7)
    monkeypatch.setitem(verify.REACH, "sandwich", 6)
    for n in range(0, 9):
        dims, dimq = routes_at(level, n, ("rank", "altsum", "matrix", "closed", "ideal"))
        assert agree(dims) and agree(dimq), (n, dims, dimq)
        reach = {
            "rank": n <= 7,
            "altsum": True,
            "matrix": level >= 4 and n >= level - 3,
            "closed": level in (4, 5, 6) and n >= (2 if level == 5 else 1),
            "ideal": False,
        }
        assert {r: v is not None for r, v in dims.items()} == reach, n
        reach["closed"] = n >= (2 if level == 6 else 1)
        reach["ideal"] = level - 1 <= n <= 6
        assert {r: v is not None for r, v in dimq.items()} == reach, n
