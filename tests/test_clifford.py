"""Even Clifford algebra blades and the level-4 homomorphism."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import slow_blade_product
from tlq import _intlinalg, clifford
from tlq.clifford import (
    BladeElement,
    constant_term_trace,
    gamma,
    image_dimension,
    omega,
    phi,
    phi_generator,
    so_commutator_report,
)
from tlq.clifford import _image_dimension_exact, _mul_basis
from tlq.diagram import tl_basis
from tlq.exactnum import cyclotomic_field
from tlq.tlalg import TLElement, embed, embedded_jones_wenzl, generator, jones_trace, jones_wenzl

F4 = cyclotomic_field(4)


def test_generator_squares():
    g1 = gamma(4, 1)
    assert (g1 * g1).terms == {0: F4.from_fraction(Fraction(1, 2))}


def test_bivector_square():
    g12 = gamma(4, 1) * gamma(4, 2)
    assert (g12 * g12).terms == {0: F4.from_fraction(Fraction(-1, 4))}


def test_disjoint_blades_reorder_with_sign():
    n = 5
    a = gamma(n, 2) * gamma(n, 4)
    b = gamma(n, 1) * gamma(n, 3)
    prod = a * b
    assert list(prod.terms) == [0b01111]
    # Sorting the concatenation (2,4,1,3) costs three transpositions.
    sign, contractions, word = slow_blade_product([2, 4], [1, 3])
    assert contractions == 0 and word == (1, 2, 3, 4) and sign == -1
    assert prod.terms[0b01111] == F4.from_int(sign)


@given(st.data())
@settings(max_examples=200, derandomize=True, deadline=None)
def test_basis_product_matches_slow_oracle(data):
    n = 6
    j = data.draw(st.integers(0, (1 << n) - 1))
    k = data.draw(st.integers(0, (1 << n) - 1))
    mask, signed = _mul_basis(j, k)
    sign, contractions = (1, signed) if signed >= 0 else (-1, ~signed)
    j_list = [i + 1 for i in range(n) if j >> i & 1]
    k_list = [i + 1 for i in range(n) if k >> i & 1]
    oracle_sign, oracle_contr, word = slow_blade_product(j_list, k_list)
    assert contractions == oracle_contr
    assert sign == oracle_sign
    assert mask == sum(1 << (g - 1) for g in word)


@given(st.data())
@settings(max_examples=200, derandomize=True, deadline=None)
def test_blade_associativity(data):
    n = 5

    def blade(draw):
        terms = {}
        for _ in range(3):
            terms[draw(st.integers(0, (1 << n) - 1))] = F4.from_int(draw(st.integers(-3, 3)))
        return BladeElement(n, terms)

    a, b, c = blade(data.draw), blade(data.draw), blade(data.draw)
    assert (a * b) * c == a * (b * c)


def test_phi_generator_relations():
    for n in range(2, 9):
        fs = [phi_generator(n, j) for j in range(1, n)]
        for j, f in enumerate(fs, start=1):
            assert f * f == F4.delta * f
            assert f.is_even()
            if j < n - 1:
                g = fs[j]
                assert f * g * f == f
                assert g * f * g == g
            for k in range(j + 2, n):
                assert f * fs[k - 1] == fs[k - 1] * f


def test_phi_is_homomorphism_on_random_pairs():
    rng = random.Random(23)
    for n in range(3, 7):
        basis = tl_basis(n)
        for _ in range(100):
            a = basis[rng.randrange(len(basis))]
            b = basis[rng.randrange(len(basis))]
            xa, xb = TLElement.from_diagram(a, 4), TLElement.from_diagram(b, 4)
            assert phi(xa * xb) == phi(xa) * phi(xb)


def test_phi_unit_and_kernel():
    for n in (3, 4, 5):
        assert phi(TLElement.one(n, 4)) == BladeElement.one(n)
        assert phi(embed(jones_wenzl(4).element, n)).is_zero()


def test_kernel_contains_ideal_products():
    for n in (4, 5):
        ej = embedded_jones_wenzl(4, n)
        basis = tl_basis(n)
        for a in basis:
            for b in basis:
                x = TLElement.from_diagram(a, 4) * ej * TLElement.from_diagram(b, 4)
                assert phi(x).is_zero()


def test_image_dimension():
    assert image_dimension(3) == 4
    assert image_dimension(4) == 8
    assert image_dimension(5) == 16
    assert _image_dimension_exact(4) == 8


def test_image_dimension_ranks_on_the_echelon_and_falls_back_to_exact(monkeypatch):
    def refuse(*args):
        raise AssertionError("image_dimension called modp_rank_with_pivots")

    monkeypatch.setattr(_intlinalg, "modp_rank_with_pivots", refuse)
    calls = []
    monkeypatch.setattr(
        clifford, "_image_dimension_exact", lambda n: calls.append(n) or _image_dimension_exact(n)
    )
    assert image_dimension(5) == 16 and calls == []
    # An unlucky prime that sends every coefficient to 0 leaves the exact rank.
    monkeypatch.setattr(clifford, "mod_p_image", lambda level, p: lambda c: 0)
    assert image_dimension(4) == 8 and calls == [4]


def test_trace_correspondence():
    for n in range(2, 7):
        for d in tl_basis(n):
            x = TLElement.from_diagram(d, 4)
            assert jones_trace(x) == constant_term_trace(phi(x))
    # tr(phi(f_1)) = 1/sqrt(2).
    assert constant_term_trace(phi_generator(3, 1)) == F4.delta.inverse()
    assert constant_term_trace(gamma(3, 1) * gamma(3, 2)).is_zero()
    assert constant_term_trace(BladeElement.one(3)) == F4.one


def test_omega_and_commutators():
    n = 5
    assert omega(n, 1, 2) == gamma(n, 1) * gamma(n, 2)
    assert omega(n, 2, 1) == -(gamma(n, 1) * gamma(n, 2))
    # Disjoint indices commute.
    w12, w34 = omega(n, 1, 2), omega(n, 3, 4)
    assert w12 * w34 == w34 * w12
    # Overlapping index contracts: [w_12, w_23] = w_13.
    w23 = omega(n, 2, 3)
    assert w12 * w23 - w23 * w12 == omega(n, 1, 3)
    for m in (2, 3, 4, 5, 6):
        rep = so_commutator_report(m)
        assert rep["omega_is_gamma_pair"] and rep["commutator_relations"]


def test_phi_rejects_other_levels():
    with pytest.raises(ValueError):
        phi(TLElement.one(3, 5))
