"""The shared linear-combination type and its packed product loop: cell
vectors and Clifford blades against their per-term loops, and the one
compatibility check for TL_n elements, cell vectors and blades."""

from __future__ import annotations

import random

import pytest

import oracles
from tlq.cellrep import CellVector, admissible_t, cell_action, cell_pairing
from tlq.clifford import BladeElement, gamma
from tlq.diagram import enumerate_monic, tl_basis
from tlq.exactnum import cyclotomic_field
from tlq.tlalg import TLElement, generator

LEVELS = (3, 4, 5, 6, 7, 8)
DENOMINATORS = (1, 2, 3, 35, 2**61 - 1)


def big_coefficient(field, rng: random.Random, bits: int = 85):
    """A coefficient with numerators of ``bits`` bits and a mixed denominator."""
    return field.from_coeffs(
        rng.choice(DENOMINATORS),
        [rng.choice((-1, 1)) * rng.getrandbits(bits) for _ in range(field.degree)],
    )


def random_cell_vector(
    t: int, n: int, level: int, rng: random.Random, size: int = 6
) -> CellVector:
    field = cyclotomic_field(level)
    basis = enumerate_monic(t, n)
    support = rng.sample(basis, min(len(basis), size))
    return CellVector(t, n, field, {d: big_coefficient(field, rng) for d in support})


def random_tl_element(n: int, level: int, rng: random.Random, size: int = 5) -> TLElement:
    field = cyclotomic_field(level)
    basis = tl_basis(n)
    support = rng.sample(basis, min(len(basis), size))
    return TLElement(n, field, {d: big_coefficient(field, rng) for d in support})


@pytest.mark.parametrize("level", LEVELS)
def test_cell_action_and_form_match_per_term_loops(level):
    rng = random.Random(7 * level)
    for n in range(8):
        for t in admissible_t(n):
            for _ in range(2):
                x = random_tl_element(n, level, rng)
                v = random_cell_vector(t, n, level, rng)
                w = random_cell_vector(t, n, level, rng)
                xv = cell_action(x, v)
                assert xv == oracles.cell_action(x, v), (n, t)
                assert cell_pairing(xv, w) == oracles.cell_pairing(xv, w), (n, t)
                assert cell_pairing(v, w) == oracles.cell_pairing(v, w), (n, t)


@pytest.mark.parametrize("level", LEVELS)
def test_cell_action_that_cancels_to_zero(level):
    # (f_1 - delta) f_1 = 0, so (f_1 - delta) kills every vector f_1 . u, and
    # the two terms of each image cancel inside one packed sum.
    rng = random.Random(level)
    field = cyclotomic_field(level)
    for n in range(2, 8):
        for t in admissible_t(n - 2):
            f1 = generator(n, 1, level)
            v = cell_action(f1, random_cell_vector(t, n, level, rng, size=len(enumerate_monic(t, n))))
            x = big_coefficient(field, rng) * (f1 - field.delta * TLElement.one(n, level))
            assert not v.is_zero(), (n, t)
            assert cell_action(x, v).is_zero() and oracles.cell_action(x, v).is_zero()


def random_blade(n: int, rng: random.Random, size: int) -> BladeElement:
    field = cyclotomic_field(4)
    return BladeElement(
        n, {rng.randrange(1 << n): big_coefficient(field, rng) for _ in range(size)}
    )


def test_blade_products_match_their_own_loop():
    rng = random.Random(4)
    for n in range(1, 9):
        for size in (1, 3, 12):
            x, y = random_blade(n, rng, size), random_blade(n, rng, size)
            assert x * y == oracles.blade_product(x, y), (n, size)
    # (1 + 2i g1 g2)(1 - 2i g1 g2) = 1 - (2i g1 g2)^2 = 0: the signed
    # contractions cancel the constant term.
    field = cyclotomic_field(4)
    i2 = 2 * field.q * field.q
    one = BladeElement.one(3)
    g12 = gamma(3, 1) * gamma(3, 2)
    x, y = one + g12.scale(i2), one - g12.scale(i2)
    assert (x * y).is_zero() and oracles.blade_product(x, y).is_zero()


def mismatched_pairs():
    """Pairs of elements that differ in space, level or class, with the
    product each type defines."""
    f4, f5 = cyclotomic_field(4), cyclotomic_field(5)
    d13, d13b = enumerate_monic(1, 3)
    d33 = enumerate_monic(3, 3)[0]
    tl_mul = lambda a, b: a * b
    return [
        (generator(3, 1, 4), generator(4, 1, 4), tl_mul),
        (generator(3, 1, 4), generator(3, 1, 5), tl_mul),
        (gamma(3, 1), gamma(5, 1), tl_mul),
        (generator(3, 1, 4), gamma(3, 1), tl_mul),
        (CellVector(1, 3, f4, {d13: f4.one}), CellVector(3, 3, f4, {d33: f4.one}), cell_pairing),
        (CellVector(1, 3, f4, {d13: f4.one}), CellVector(1, 3, f5, {d13b: f5.one}), cell_pairing),
    ]


@pytest.mark.parametrize("case", range(6))
def test_mismatched_elements_do_not_combine(case):
    a, b, product = mismatched_pairs()[case]
    for op in (lambda: a + b, lambda: a - b, lambda: b + a, lambda: product(a, b)):
        with pytest.raises(ValueError):
            op()
    assert a != b


def test_constructors_reject_coefficients_of_another_level():
    f4, f5 = cyclotomic_field(4), cyclotomic_field(5)
    d = tl_basis(2)[0]
    for make in (
        lambda: TLElement(2, f5, {d: f4.delta}),
        lambda: CellVector(1, 3, f5, {enumerate_monic(1, 3)[0]: f4.one}),
        lambda: BladeElement(2, {0: f5.one}),
    ):
        with pytest.raises(ValueError):
            make()


def test_cell_action_rejects_other_strands_and_levels():
    f4 = cyclotomic_field(4)
    v = CellVector(1, 3, f4, {enumerate_monic(1, 3)[0]: f4.one})
    for x in (generator(4, 1, 4), generator(3, 1, 5)):
        with pytest.raises(ValueError):
            cell_action(x, v)


def test_linear_operations_keep_the_space():
    rng = random.Random(11)
    level = 5
    field = cyclotomic_field(level)
    x, y = random_tl_element(4, level, rng), random_tl_element(4, level, rng)
    assert (x + y) - y == x and x - x == TLElement.zero(4, level)
    assert (-x).n == 4 and 2 * x == x + x == x.scale(2) == x * 2
    assert x.scale(0).is_zero() and not x.scale(0)
    assert hash(x + y) == hash(y + x)
    v, w = random_cell_vector(2, 4, level, rng), random_cell_vector(2, 4, level, rng)
    s = v + w
    assert (s.t, s.n, s.field) == (2, 4, field) and s - w == v
    for d in enumerate_monic(2, 4):
        assert s.coefficient(d) == v.coefficient(d) + w.coefficient(d)
    b = random_blade(4, rng, 5)
    assert (b - b).is_zero() and (-b).n == 4 and b.constant_term() == b.coefficient(0)
