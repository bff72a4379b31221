"""Cell modules, the cell form, simple dimensions and the classification."""

from __future__ import annotations

import random

import pytest

from tlq.cellrep import (
    CellVector,
    admissible_t,
    annihilation_check,
    cell_action,
    cell_pairing,
    g_apply,
    g_orbit,
    gram_matrix,
    quotient_labels,
    simple_dim_altsum,
    simple_dim_rank,
)
from tlq.combinatorics import w_dim
from tlq.diagram import Diagram, enumerate_monic
from tlq.exactnum import cyclotomic_field, rank_by_columns
from tlq.tlalg import TLElement, embedded_jones_wenzl, generator


def test_gram_examples():
    field = cyclotomic_field(4)
    top = gram_matrix(4, 4, 4)
    assert top.nrows == 1 and top.rows[0][0] == field.one
    cupcap = gram_matrix(0, 2, 4)
    assert cupcap.rows[0][0] == field.delta
    g24 = gram_matrix(2, 4, 4)
    assert g24.nrows == 3 and g24.rank() == 2
    # The form is symmetric.
    for i in range(3):
        for j in range(3):
            assert g24.rows[i][j] == g24.rows[j][i]


@pytest.mark.parametrize("level", (3, 4, 5, 6, 7, 8))
def test_gathered_planes_match_the_cycnum_gram_route(level):
    # simple_dim_rank gathers integer planes from the exponent table; the
    # per-entry elimination of the CycNum Gram matrix must give the same rank.
    for n in range(9):
        for t in admissible_t(n):
            assert simple_dim_rank(t, n, level) == rank_by_columns(gram_matrix(t, n, level)), (n, t)
    with pytest.raises(ValueError):
        simple_dim_rank(1, 4, level)


def test_delta_ring_ranks_equal_the_cyclotomic_ranks():
    # simple_dim_rank eliminates over Z[delta]; the CycNum Gram matrix is
    # ranked over Q(zeta_2l).  A rank does not change under field extension.
    cells = [(t, n, level) for level in range(3, 11) for n in range(1, 10) for t in admissible_t(n)]
    assert len(cells) == 232
    for t, n, level in cells:
        assert simple_dim_rank(t, n, level) == gram_matrix(t, n, level).rank(), (t, n, level)


def test_cell_action_module_axioms():
    rng = random.Random(5)
    for level in (4, 5):
        for (t, n) in ((1, 3), (2, 4), (1, 5)):
            basis = enumerate_monic(t, n)
            diagrams = list(basis)
            for _ in range(20):
                v = CellVector.from_diagram(diagrams[rng.randrange(len(diagrams))], level)
                x = generator(n, rng.randint(1, n - 1), level)
                y = generator(n, rng.randint(1, n - 1), level)
                assert cell_action(x * y, v) == cell_action(x, cell_action(y, v))
                one = TLElement.one(n, level)
                assert cell_action(one, v) == v


def test_cell_action_frozen_example():
    # f_1 on the W_1(3) basis diagram with its arc at top positions 2,3
    # rearranges it to the other basis diagram, with coefficient one.
    basis = enumerate_monic(1, 3)
    cup23 = next(d for d in basis if d.pairing[2] == 3)
    other = next(d for d in basis if d is not cup23)
    out = cell_action(generator(3, 1, 4), CellVector.from_diagram(cup23, 4))
    assert out.terms == {other: cyclotomic_field(4).one}


def test_form_invariance_under_star():
    # phi(x v, w) = phi(v, x* w) with x = f_i self adjoint.
    rng = random.Random(9)
    for level in (4, 5):
        t, n = 2, 4
        basis = enumerate_monic(t, n)
        for _ in range(30):
            v = CellVector.from_diagram(basis[rng.randrange(len(basis))], level)
            w = CellVector.from_diagram(basis[rng.randrange(len(basis))], level)
            f = generator(n, rng.randint(1, n - 1), level)
            assert cell_pairing(cell_action(f, v), w) == cell_pairing(v, cell_action(f, w))


def test_g_function():
    assert g_apply(0, 4) == 6
    assert g_apply(2, 4) == 4
    assert g_apply(1, 4) == 5
    assert g_apply(3, 5) == 5
    with pytest.raises(ValueError):
        g_apply(3, 4)
    for level in (4, 5, 6, 7, 8):
        for t in range(0, 40):
            if t % level == level - 1:
                continue
            g = g_apply(t, level)
            assert g >= t + 2 and (g - t) % 2 == 0
            assert g_apply(g, level) == t + 2 * level
    assert g_orbit(0, 4, 20) == (0, 6, 8, 14, 16)


def test_altsum_examples():
    assert simple_dim_altsum(1, 5, 4) == w_dim(1, 5) - w_dim(5, 5) == 4
    assert simple_dim_altsum(2, 4, 4) == w_dim(2, 4) - w_dim(4, 4) == 2
    # Below the first reflection the sum has a single term.
    for level in (5, 6):
        for n in range(1, level - 1):
            for t in admissible_t(n):
                assert simple_dim_altsum(t, n, level) == w_dim(t, n)


def test_simple_dim_rank_examples():
    assert simple_dim_rank(1, 5, 4) == 4
    assert simple_dim_rank(0, 4, 4) == 2
    # Generic regime: the form is nondegenerate.
    for level in (5, 6):
        for n in range(1, level - 1):
            for t in admissible_t(n):
                assert simple_dim_rank(t, n, level) == w_dim(t, n)


def test_rank_equals_altsum_sweep():
    for level in (4, 5, 6):
        for n in range(1, 10):
            for t in admissible_t(n):
                if t % level == level - 1:
                    continue
                assert simple_dim_rank(t, n, level) == simple_dim_altsum(t, n, level)


def test_rank_equals_altsum_full_table():
    # The full table through n = 12, with Gram matrices up to 297 x 297.
    for level in (4, 5, 6):
        for n in (10, 11, 12):
            for t in admissible_t(n):
                if t % level == level - 1:
                    continue
                assert simple_dim_rank(t, n, level) == simple_dim_altsum(
                    t, n, level
                ), (level, n, t)


def test_composition_factor_identity():
    # w_t = l_t + l_{g(t)} when the reflection lands inside the table,
    # otherwise the cell module is simple.
    for level in (4, 5, 6):
        for n in range(2, 10):
            for t in admissible_t(n):
                if t % level == level - 1:
                    assert simple_dim_rank(t, n, level) == w_dim(t, n)
                    continue
                rank = simple_dim_rank(t, n, level)
                g = g_apply(t, level)
                if g <= n:
                    assert w_dim(t, n) == rank + simple_dim_rank(g, n, level)
                else:
                    assert w_dim(t, n) == rank


def test_quotient_labels():
    assert quotient_labels(4, 6) == (0, 2)
    assert quotient_labels(4, 5) == (1,)
    assert quotient_labels(6, 6) == (0, 2, 4)
    assert quotient_labels(6, 8) == (0, 2, 4)
    assert len(quotient_labels(7, 9)) <= 7 // 2


def test_annihilation_examples():
    assert annihilation_check(3, 5, 4) is False
    assert annihilation_check(2, 4, 4) is True
    assert annihilation_check(1, 5, 5) is True


def test_jw_image_in_radical_but_not_zero():
    # At level 4 the embedded idempotent maps W_1(5) into the radical of the
    # form, yet one basis image is a nonzero radical vector (the diagram with
    # nested arcs avoiding the first three strands).  Regression anchor.
    ej = embedded_jones_wenzl(4, 5)
    assert annihilation_check(1, 5, 4) is True
    images = [cell_action(ej, CellVector.from_diagram(d, 4)) for d in enumerate_monic(1, 5)]
    assert sum(0 if v.is_zero() else 1 for v in images) == 1
    for v in images:
        for d in enumerate_monic(1, 5):
            assert cell_pairing(v, CellVector.from_diagram(d, 4)).is_zero()


def test_jw_literal_annihilation_in_harmonic_range():
    # At level 5 every monic 1 -> 5 diagram has an arc within the first four
    # strands, so the kill is literal.
    ej = embedded_jones_wenzl(5, 5)
    for d in enumerate_monic(1, 5):
        assert cell_action(ej, CellVector.from_diagram(d, 5)).is_zero()


def test_top_cell_action_fixes_straight_through_vectors():
    # For t >= level-1 the idempotent fixes every vector of the shape
    # (straight strands) (x) D' exactly: all other summands drop the
    # through-degree and are truncated away.
    for level, n in ((4, 5), (5, 6)):
        t = level - 1 if (n - level + 1) % 2 == 0 else level
        ej = embedded_jones_wenzl(level, n)
        straight = [
            d for d in enumerate_monic(t, n)
            if all(d.pairing[b] == 2 * t - 1 - b for b in range(t))
        ]
        assert straight
        for d in straight:
            image = cell_action(ej, CellVector.from_diagram(d, level))
            assert image.terms == {d: cyclotomic_field(level).one}


def test_self_duality_pairing_step():
    # phi(E v, w) = phi(E v, E w) for random cell vectors at t = level-2.
    rng = random.Random(17)
    for level in (4, 5, 6):
        t, n = level - 2, level
        ej = embedded_jones_wenzl(level, n)
        basis = enumerate_monic(t, n)
        for _ in range(15):
            v = CellVector.from_diagram(basis[rng.randrange(len(basis))], level)
            w = CellVector.from_diagram(basis[rng.randrange(len(basis))], level)
            ev = cell_action(ej, v)
            ew = cell_action(ej, w)
            assert cell_pairing(ev, w) == cell_pairing(ev, ew)


def test_annihilation_matches_classification():
    for level in (4, 5):
        for n in range(level - 1, 9):
            for t in admissible_t(n):
                assert annihilation_check(t, n, level) == (t <= level - 2), (level, n, t)
