"""Exact arithmetic layer: cyclotomic fields, quantum integers, ranks."""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import euclid_inverse, fraction_det, fraction_rank, q_poly_by_powers, quantum_int_by_ratio
from tlq import _intlinalg, exactnum
from tlq.diagram import Diagram, hook_poly, nesting_forest, tl_basis
from tlq.exactnum import (
    CycNum,
    ExactMatrix,
    cyclotomic_field,
    cyclotomic_polynomial,
    delta_minimal_polynomial,
    delta_ring,
    mod_p_image,
    plane_rank,
    poly_divexact,
    powers,
    quantum_int,
    rank_by_columns,
)

LEVELS = (3, 4, 5, 6, 7, 8)
INVERSE_LEVELS = tuple(range(3, 13))


def cyc_numbers(level: int):
    field = cyclotomic_field(level)
    return st.builds(
        lambda den, num: field.from_coeffs(den, num),
        st.integers(min_value=1, max_value=9),
        st.lists(
            st.integers(min_value=-9, max_value=9),
            min_size=field.degree,
            max_size=field.degree,
        ),
    )


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    # Product over divisors rebuilds x^n - 1 (degree check).
    for n in (6, 10, 16, 12):
        total = sum(len(cyclotomic_polynomial(d)) - 1 for d in range(1, n + 1) if n % d == 0)
        assert total == n


@pytest.mark.parametrize("level", LEVELS)
def test_root_of_unity_structure(level):
    field = cyclotomic_field(level)
    q = field.q
    assert (q * q) ** level == field.one
    for k in range(1, level):
        assert (q * q) ** k != field.one
    # delta = 2 cos(pi/level) is real and positive.
    approx = field.delta.approx()
    assert abs(approx.imag) < 1e-12
    assert abs(approx.real - 2 * math.cos(math.pi / level)) < 1e-12
    assert field.delta * field.delta.inverse() == field.one


@pytest.mark.parametrize("level", LEVELS)
def test_quantum_int_vanishing_pattern(level):
    field = cyclotomic_field(level)
    assert quantum_int(level, field.q).is_zero()
    for m in range(1, level):
        assert not quantum_int(m, field.q).is_zero()


@pytest.mark.parametrize("level", LEVELS)
def test_quantum_int_matches_ratio(level):
    field = cyclotomic_field(level)
    for m in range(0, 2 * level + 1):
        assert quantum_int(m, field.q) == quantum_int_by_ratio(m, level)


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _q_factorial(m: int) -> tuple[int, list[int]]:
    """[m]! as the hook quotient of m side-by-side arcs."""
    return hook_poly(nesting_forest(Diagram(0, 2 * m, tuple(k ^ 1 for k in range(2 * m)))))


def test_quantum_int_symbolic():
    # [m] = q^(1-m) (1 + q^2 + ... + q^(2m-2)) as a pair (shift, coefficients).
    field = cyclotomic_field(5)
    for m in range(7):
        assert field.from_q_poly(1 - m, [1] * m) == quantum_int(m, field.q)
    with pytest.raises(ValueError):
        quantum_int(-1, field.q)


def test_quantum_int_level4_values():
    field = cyclotomic_field(4)
    assert quantum_int(2, field.q) == -field.delta
    assert quantum_int(2, field.q) * field.delta == field.from_int(-2)
    assert quantum_int(3, field.q) == field.one


def test_q_factorial_is_a_hook_quotient():
    assert _q_factorial(0) == (0, [1])
    assert _q_factorial(2) == (-1, [1, 1])
    assert _q_factorial(3) == (-3, [1, 2, 2, 1])
    field = cyclotomic_field(4)
    value = field.from_q_poly(*_q_factorial(3))
    assert not value.is_zero()
    assert value == -field.delta  # [1][2][3] at level 4 is 1 * (-sqrt 2) * 1


@pytest.mark.parametrize("level", LEVELS)
def test_rational_cycnums_hash_like_their_ints_and_fractions(level):
    # A CycNum equal to an int or a Fraction must hash like it, or sets and
    # dicts keyed by one miss the other.
    field = cyclotomic_field(level)
    for value in (0, 1, -1, 7, -(2**70), Fraction(1, 2), Fraction(-5, 3), Fraction(2**65, 7)):
        c = field.from_fraction(value)
        assert c == value and value == c
        assert hash(c) == hash(value)
        assert value in {c} and c in {value}
        assert {value: "v"}[c] == "v" and {c: "c"}[value] == "c"
    # Equal numbers that are not rational still hash alike, and stay apart
    # from their rational parts.
    z = field.zeta
    assert hash(z * 3 - z * 2) == hash(z) and z * 2 not in {2} and 2 not in {z * 2}


def test_poly_divexact_roundtrip():
    a = _q_factorial(5)[1]
    b = _poly_mul([1, 1, 1], [1, 1, 1, 1])  # [3][4] without its power of q
    assert poly_divexact(_poly_mul(a, b), b) == a
    assert poly_divexact(_poly_mul(a, b), a) == b
    c, d = [2, 0, -5, 0, 0, 0, 0, 7], [3, 0, 1, -1]
    assert poly_divexact(_poly_mul(c, d), d) == c
    assert poly_divexact([0, 0, 6], [0, -3]) == [0, -2]
    assert poly_divexact([0, 0], d) == []


def test_poly_divexact_raises_unless_exact():
    # Raises, not asserts: this test is also run under python -O.
    d = [3, 0, 1, -1]
    product = _poly_mul([2, 0, -5, 0, 0, 0, 0, 7], d)
    for num, den in (
        ([v + (k == 2) for k, v in enumerate(product)], d),  # a nonzero remainder
        ([0, 3], [0, 2]),  # 3/2 is not an integer
        ([1], d),  # fewer terms than the divisor
        ([2, 1, 1], [1, 1, 1]),  # the same length, not a multiple
    ):
        with pytest.raises(ArithmeticError):
            poly_divexact(num, den)
    for zero in ([], [0], [1, 0]):
        with pytest.raises(ZeroDivisionError):
            poly_divexact(product, zero)


@given(st.data())
@settings(max_examples=100, derandomize=True, deadline=None)
def test_laurent_evaluation_is_ring_homomorphism(data):
    # from_q_poly sends q^s P(q^2) to the field: sums and products commute.
    level = data.draw(st.sampled_from((4, 5, 6)))
    field = cyclotomic_field(level)
    coeffs = st.lists(st.integers(-5, 5), min_size=1, max_size=5)
    sa, sb = data.draw(st.integers(-4, 4)), data.draw(st.integers(-4, 4))
    a, b = data.draw(coeffs), data.draw(coeffs)
    total = [x + y for x, y in zip(a + [0] * len(b), b + [0] * len(a))]
    assert field.from_q_poly(sa, a) + field.from_q_poly(sa, b) == field.from_q_poly(sa, total)
    assert field.from_q_poly(sa, a) * field.from_q_poly(sb, b) == field.from_q_poly(sa + sb, _poly_mul(a, b))


@given(st.data())
@settings(max_examples=200, derandomize=True, deadline=None)
def test_field_axioms(data):
    level = data.draw(st.sampled_from(LEVELS))
    a = data.draw(cyc_numbers(level))
    b = data.draw(cyc_numbers(level))
    c = data.draw(cyc_numbers(level))
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    if not a.is_zero():
        assert a * a.inverse() == cyclotomic_field(level).one


@given(st.data())
@settings(max_examples=100, derandomize=True, deadline=None)
def test_powers_and_fractions(data):
    level = data.draw(st.sampled_from((3, 4, 5, 6)))
    a = data.draw(cyc_numbers(level))
    k = data.draw(st.integers(min_value=0, max_value=6))
    prod = cyclotomic_field(level).one
    for _ in range(k):
        prod = prod * a
    assert a**k == prod
    if not a.is_zero():
        assert a**-k == prod.inverse()
    r = Fraction(data.draw(st.integers(-20, 20)), data.draw(st.integers(1, 20)))
    f = cyclotomic_field(level).from_fraction(r)
    assert f + f == cyclotomic_field(level).from_fraction(2 * r)


def test_rank_trivial_cases():
    field = cyclotomic_field(4)
    zero = ExactMatrix.zeros(field, 3, 3)
    assert zero.rank() == 0
    eye = ExactMatrix(
        field,
        [[field.one if i == j else field.zero for j in range(5)] for i in range(5)],
    )
    assert eye.rank() == 5


@given(st.data())
@settings(max_examples=80, derandomize=True, deadline=None)
def test_rank_pivot_order_and_transpose_invariance(data):
    level = data.draw(st.sampled_from((3, 4, 5)))
    field = cyclotomic_field(level)
    nrows = data.draw(st.integers(1, 5))
    ncols = data.draw(st.integers(1, 5))
    rows = [
        [data.draw(cyc_numbers(level)) if data.draw(st.booleans()) else field.zero for _ in range(ncols)]
        for _ in range(nrows)
    ]
    m = ExactMatrix(field, rows)
    r = m.rank()
    assert r == rank_by_columns(m)
    assert r == m.transpose().rank()


def _random_matrix(field, rng, nrows, ncols):
    """A matrix with denominators, zero entries and columns, and rows that
    are combinations of earlier rows."""

    def value(dens, top):
        return field.from_coeffs(rng.choice(dens), [rng.randint(-top, top) for _ in range(field.degree)])

    zero_cols = {j for j in range(ncols) if rng.random() < 0.2}
    rows = []
    for _ in range(nrows):
        if rows and rng.random() < 0.4:
            coeffs = [value((1, 2, 5), 3) for _ in rows]
            rows.append([sum((c * r[j] for c, r in zip(coeffs, rows)), field.zero) for j in range(ncols)])
        else:
            rows.append([
                field.zero if j in zero_cols or rng.random() < 0.3 else value((1, 1, 2, 6, 35), 9)
                for j in range(ncols)
            ])
    return ExactMatrix(field, rows)


@pytest.mark.parametrize("level", LEVELS)
def test_plane_rank_matches_rank_by_columns(level):
    field = cyclotomic_field(level)
    rng = random.Random(100 + level)
    shapes = [(0, 0), (0, 3), (3, 0), (1, 1), (1, 5), (5, 1)]
    shapes += [(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(14)]
    for nrows, ncols in shapes:
        m = _random_matrix(field, rng, nrows, ncols)
        ranks = {m.rank(), rank_by_columns(m), m.transpose().rank()}
        # Raises, not asserts: this test is also run under python -O.
        if len(ranks) != 1:
            raise AssertionError((nrows, ncols, ranks))


@pytest.mark.parametrize("level", (5, 8))
def test_plane_rank_promotes_past_the_int64_bound(level):
    # Entries near 2^40: the first pivot's norm times an entry already
    # passes the int64 bound, so the update runs on Python integers.
    field = cyclotomic_field(level)
    rng = random.Random(level)
    big = lambda: field.from_coeffs(1, [rng.randint(2**40 - 99, 2**40) for _ in range(field.degree)])
    rows = [[big() for _ in range(4)] for _ in range(3)]
    rows.insert(2, [a - b * field.zeta for a, b in zip(rows[0], rows[1])])
    # Determinant 2^64: an update that wrapped modulo 2^64 would find rank 1.
    wrap = [[field.from_int(2**32), field.one], [field.from_int(2**32), field.from_int(2**32 + 1)]]
    # Raises, not asserts: this test is also run under python -O.
    if rows[0][0].inverse().den * 2**40 < 2**62:
        raise AssertionError("the first update fits int64")
    for matrix, want in ((rows, 3), (wrap, 2)):
        planes = np.array([[c.num for c in row] for row in matrix], dtype=np.int64)
        m = ExactMatrix(field, matrix)
        ranks = (m.rank(), plane_rank(field, planes), rank_by_columns(m))
        if ranks != (want,) * 3:
            raise AssertionError(ranks)
    # The same in Z[delta]: entries near 2^40 in the delta basis, one row
    # row0 - delta * row1, and the 2^64 determinant on constants.
    ring = delta_ring(level)
    big = lambda: [rng.randint(2**40 - 99, 2**40) for _ in range(ring.degree)]
    rows = [[big() for _ in range(4)] for _ in range(3)]
    delta = np.array([[0, 1] + [0] * (ring.degree - 2)], dtype=object)
    shifted = exactnum.plane_products(ring, np.array(rows[1], dtype=object), delta)[:, 0]
    rows.insert(2, (np.array(rows[0], dtype=object) - shifted).tolist())
    const = lambda v: [v] + [0] * (ring.degree - 1)
    wrap = [[const(2**32), const(1)], [const(2**32), const(2**32 + 1)]]
    if abs(ring.pivot_inverse(rows[0][0])[1]) * 2**40 < 2**62:
        raise AssertionError("the first update fits int64 in Z[delta]")
    for matrix, want in ((rows, 3), (wrap, 2)):
        m = ExactMatrix(field, [[_in_field(level, x) for x in row] for row in matrix])
        ranks = (plane_rank(ring, np.array(matrix, dtype=np.int64)), m.rank(), rank_by_columns(m))
        if ranks != (want,) * 3:
            raise AssertionError(ranks)


def _in_field(level, x):
    """The element of Q(zeta_2l) with delta-basis coefficients x."""
    field = cyclotomic_field(level)
    return sum((c * p for c, p in zip(x, powers(field.delta, len(x)))), field.zero)


@pytest.mark.parametrize("level", range(3, 13))
def test_delta_ring_relation_kills_delta_in_the_field(level):
    # m(delta) = 0 in Q(zeta_2l), exactly, at degree phi(2l)/2.
    field, m = cyclotomic_field(level), delta_minimal_polynomial(level)
    h = len(m) - 1
    assert 2 * h == field.degree and m[-1] == 1
    assert sum((c * p for c, p in zip(m, powers(field.delta, h))), field.zero) == field.zero
    assert delta_ring(level).degree == h
    expected = {5: (-1, -1, 1), 6: (-3, 0, 1), 7: (1, -2, -1, 1)}  # d^2 = d + 1, d^2 = 3, d^3 = d^2 + 2d - 1
    assert m == expected.get(level, m)


@pytest.mark.parametrize("level", (3, 4, 5, 7, 11))
def test_delta_ring_pivot_inverse_is_the_adjugate_row(level):
    # x * R = N with N = det M and R = N / x: checked through Q(zeta).
    ring, field = delta_ring(level), cyclotomic_field(level)
    rng = random.Random(level)
    for _ in range(20):
        x = [rng.randint(-2**20, 2**20) for _ in range(ring.degree)]
        r, norm = ring.pivot_inverse(x)
        assert _in_field(level, x) * _in_field(level, r) == field.from_int(norm) != field.zero
        m = exactnum._times(ring, np.array([x], dtype=object))[0]
        assert norm == fraction_det(m.tolist())


@pytest.mark.parametrize("level", (3, 5, 6, 7))
def test_delta_ring_raises_on_a_wrong_reduction_row(level, monkeypatch):
    # delta^h reduced by one wrong coefficient: the relation must fail in
    # Q(zeta) and the ring refuse to build, also under python -O.
    good = delta_minimal_polynomial(level)
    for j in range(len(good) - 1):
        wrong = tuple(c + (i == j) for i, c in enumerate(good))
        monkeypatch.setattr(exactnum, "delta_minimal_polynomial", lambda _: wrong)
        with pytest.raises(ArithmeticError, match="kill delta"):
            exactnum.DeltaRing(level)
    monkeypatch.setattr(exactnum, "delta_minimal_polynomial", lambda _: good)
    exactnum.DeltaRing(level)


@pytest.mark.parametrize("level", (4, 5, 8))
def test_plane_rank_raises_on_a_wrong_pivot_inverse(level, monkeypatch):
    # A pivot inverse that is off by one in R, or that gives N = 0, must
    # stop the elimination on either ring, also under python -O.
    for ring in (delta_ring(level), cyclotomic_field(level)):
        rng = random.Random(level)
        planes = np.array(
            [[[rng.randint(1, 9) for _ in range(ring.degree)] for _ in range(3)] for _ in range(3)],
            dtype=np.int64,
        )
        right = type(ring).pivot_inverse
        for wrong in (
            lambda self, x: ((right(self, x)[0][0] + 1,) + right(self, x)[0][1:], right(self, x)[1]),
            lambda self, x: (right(self, x)[0], right(self, x)[1] + 1),
            lambda self, x: ((0,) * self.degree, 0),
        ):
            monkeypatch.setattr(type(ring), "pivot_inverse", wrong)
            with pytest.raises(ArithmeticError, match="pivot inverse"):
                plane_rank(ring, planes)
        monkeypatch.setattr(type(ring), "pivot_inverse", right)
        if plane_rank(ring, planes) != 3:
            raise AssertionError(ring)


def test_certified_int_rank_against_fractions():
    import numpy as np

    from tlq._intlinalg import certified_rank

    rng = np.random.default_rng(11)
    for _ in range(40):
        n, m = int(rng.integers(1, 10)), int(rng.integers(1, 10))
        inner = int(rng.integers(0, 6))
        a = rng.integers(-5, 6, size=(n, inner)) @ rng.integers(-5, 6, size=(inner, m))
        assert certified_rank(a) == fraction_rank(a.tolist())


def test_trace_gram_rank_example():
    # The full trace Gram matrix on four strands at level 4 has rank 2^(4-1).
    from tlq.tlalg import trace_gram_matrix

    assert trace_gram_matrix(4, 4).rank() == 8


def test_exactness_guards_raise_without_assert():
    # Runs under python -O, which strips assert: the exactness checks here,
    # the int64 bounds and the edge paths of the product-sum step, the
    # stored form of a combination and its merges across the int64 bound, the
    # table-based kill check of radical_split, its retry paths, the sum
    # bounds of its ideal step and the guards of the cell-form, product and
    # phi walks must all still raise, and the reduction mod p stays exact.
    root = Path(__file__).resolve().parents[1]
    path = filter(None, (str(root / "src"), os.environ.get("PYTHONPATH")))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    for module, selection in (
        (Path(__file__).resolve(), "inverse or norm or divexact or plane_rank or delta_ring"),
        (root / "tests" / "test_lincomb.py", "int64_bound or pair_sums_edge or stored_form or merge_bound"),
        (root / "tests" / "test_tlalg.py", (
            "broken_idempotent or retries or every_prime_fails or past_the_int64_bound"
            " or fiber_bound or column_sum_bound or row_sums_bound"
        )),
        (root / "tests" / "test_basis.py", "cell_walk_raises or product_walk_raises or phi_walk_raises"),
        (root / "tests" / "test_diagram.py", "hook_poly_raises"),
        (root / "tests" / "test_intlinalg.py", "mod_is_exact"),
    ):
        result = subprocess.run(
            [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
             str(module), "-k", selection],
            cwd=root, env=env, capture_output=True, text=True, timeout=300,
        )
        assert result.returncode == 0, result.stdout[-2000:]
        assert " passed" in result.stdout


@pytest.mark.parametrize("level", INVERSE_LEVELS)
def test_laurent_evaluate_matches_per_term_powers(level, monkeypatch):
    field = cyclotomic_field(level)
    rng = random.Random(level)
    polys = [_q_factorial(5), (-9, _poly_mul([1] * 4, [1] * 7)), (0, [1]), (3, []), (-2, [0, 0])]
    polys += [
        (rng.randint(-9, 9), [rng.randint(-(2**70), 2**70) for _ in range(rng.randint(1, 8))])
        for _ in range(10)
    ]
    expected = [q_poly_by_powers(field, shift, coeffs) for shift, coeffs in polys]
    calls = []

    def counted(name):
        real = getattr(exactnum.CycNum, name)
        return lambda *args: calls.append(name) or real(*args)

    for name in ("__mul__", "__rmul__", "__pow__", "inverse"):
        monkeypatch.setattr(exactnum.CycNum, name, counted(name))
    for (shift, coeffs), value in zip(polys, expected):
        assert field.from_q_poly(shift, coeffs) == value
    # The table rows are summed in integers: no CycNum product, power or inverse.
    assert calls == []


# The Galois-norm inverse, the zeta-power table and the mod-p image.



def _random_cycnums(field, rng, count):
    out = []
    for _ in range(count):
        bound = 2 ** rng.choice((1, 8, 64, 200))
        num = [rng.randint(-bound, bound) for _ in range(field.degree)]
        num[0] = num[0] or 1  # never zero
        out.append(field.from_coeffs(rng.choice((1, 3, 35, 2**61 - 1)), num))
    return out


@pytest.mark.parametrize("level", INVERSE_LEVELS)
def test_inverse_matches_the_euclid_oracle(level):
    field = cyclotomic_field(level)
    rng = random.Random(level)
    special = [field.delta, field.q, field.q_inv, field.delta**5, field.from_int(-7)]
    special += [field.from_zeta_power(k) for k in range(2 * level)]
    for x in special + _random_cycnums(field, rng, 12):
        inv = x.inverse()
        assert inv == euclid_inverse(x)
        assert x * inv == field.one
    with pytest.raises(ZeroDivisionError):
        field.zero.inverse()


@pytest.mark.parametrize("level", INVERSE_LEVELS)
def test_from_zeta_power_matches_repeated_multiplication(level):
    field = cyclotomic_field(level)
    # zeta^k = zeta^(k + 4l) for k in [-4l, 4l), reached by multiplying by zeta.
    power = field.one
    expected = []
    for _ in range(8 * level):
        expected.append(power)
        power = power * field.zeta
    assert power == field.one
    for k in range(-4 * level, 4 * level):
        assert field.from_zeta_power(k) == expected[k + 4 * level], k
        assert field.from_zeta_power(k) * field.from_zeta_power(-k) == field.one


@pytest.mark.parametrize("level", (3, 4, 5, 8))
def test_inverse_checks_the_norm_with_a_corrupted_zeta_table(level, monkeypatch):
    field = cyclotomic_field(level)
    xs = _random_cycnums(field, random.Random(-level), 5)
    # One entry of the first conjugate's row is off by one, so sigma_k is no
    # longer an automorphism and the product of conjugates is not the norm.
    k = field._conjugates[0]
    table = [list(row) for row in field._zeta_powers]
    table[k][0] += 1
    monkeypatch.setattr(field, "_zeta_powers", tuple(map(tuple, table)))
    for x in xs:
        with pytest.raises(ArithmeticError, match="norm"):
            x.inverse()


@pytest.mark.parametrize("level", (3, 4, 5, 6, 7, 8, 12))
def test_mod_p_image_is_a_ring_homomorphism(level):
    field = cyclotomic_field(level)
    p = next(_intlinalg.working_primes(order=2 * level))
    image = mod_p_image(level, p)
    rng = random.Random(2 * level)
    assert image(field.one) == 1 and image(field.zero) == 0
    z = image(field.zeta)
    assert pow(z, level, p) == p - 1  # zeta^l = -1
    assert image(field.delta) == -(image(field.q) + image(field.q_inv)) % p
    xs = _random_cycnums(field, rng, 8)
    for x, y in zip(xs, xs[1:] + xs[:1]):
        assert image(x + y) == (image(x) + image(y)) % p
        assert image(x * y) == image(x) * image(y) % p
        assert image(x.inverse()) * image(x) % p == 1
    vanishing = field.from_coeffs(p * 35, [1] + [0] * (field.degree - 1))
    with pytest.raises(ArithmeticError, match="denominator"):
        image(vanishing)
    with pytest.raises(ValueError):
        image(cyclotomic_field(level + 1).one)


@pytest.mark.parametrize("level", LEVELS)
def test_mod_p_image_of_a_combination_is_its_coefficient_images(level):
    # One step on the stored plane, int64 or Python integers, is the image of
    # each coefficient in label order.
    from tlq.tlalg import TLElement

    field = cyclotomic_field(level)
    p = next(_intlinalg.working_primes(order=2 * level))
    image = mod_p_image(level, p)
    rng = random.Random(3 * level)
    basis = tl_basis(4)
    for bits in (3, 61, 90):
        x = TLElement(4, field, {
            d: field.from_coeffs(rng.choice((1, 3, 2**61 - 1)), [rng.randint(-(2**bits), 2**bits) for _ in range(field.degree)])
            for d in rng.sample(basis, 10)
        })
        residues = image(x)
        assert residues.dtype == np.int64
        assert residues.tolist() == [image(c) for c in x.terms.values()]
    assert image(TLElement.zero(4, level)).tolist() == []
    with pytest.raises(ArithmeticError, match="denominator"):
        image(TLElement(4, field, {basis[0]: field.from_coeffs(p, [1] + [0] * (field.degree - 1))}))
    with pytest.raises(ValueError):
        image(TLElement.one(4, level + 1))
