"""The indexed diagram basis: its index, star permutation and tables against
the per-pair loops that each consumer ran before it."""

from __future__ import annotations

import random

import numpy as np
import pytest

import oracles
from tlq import clifford, diagram, tlalg
from tlq.cellrep import admissible_t
from tlq.diagram import diagram_basis, star_pairing, tl_pairings

CELLS = [(t, n) for n in range(11) for t in admissible_t(n)]
TL_N = range(1, 8)


@pytest.mark.parametrize("t, n", CELLS)
def test_index_and_cell_table_match_the_per_pair_loop(t, n):
    basis = diagram_basis(t, n)
    assert len(basis.index) == len(basis.pairings) > 0
    assert all(basis.pairings[basis.index[p]] == p for p in basis.pairings)
    np.testing.assert_array_equal(basis.cell_exponents, oracles.cell_gram_exponents(t, n))


@pytest.mark.parametrize("t, n", CELLS)
def test_actions_match_the_composed_generators(t, n):
    actions = diagram_basis(t, n).actions
    reference = oracles.cell_generator_actions(t, n)
    assert len(actions) == len(reference) == max(n - 1, 0)
    for (tgt, loops), (ref_tgt, ref_loops) in zip(actions, reference):
        np.testing.assert_array_equal(tgt, ref_tgt)
        np.testing.assert_array_equal(loops, ref_loops)


@pytest.mark.parametrize("n", TL_N)
def test_tl_tables_match_the_per_pair_loops(n):
    basis = diagram_basis(0, 2 * n)
    assert basis.pairings == tl_pairings(n)
    star = basis.star
    assert all(basis.pairings[s] == star_pairing(2 * n, p) for p, s in zip(basis.pairings, star))
    assert (star[star] == np.arange(len(star))).all()
    np.testing.assert_array_equal(basis.cell_exponents, oracles.cell_gram_exponents(0, 2 * n))
    np.testing.assert_array_equal(basis.trace_exponents, oracles.trace_exponents(n))
    # f_i D is the action f_(n+i) on the flat points; D f_i is column f_i of
    # the products.  The reference interleaves them: f_1 left, f_1 right, ...
    reference = oracles.generator_action_maps(n)
    right, closed = basis.generator_columns
    maps = list(basis.actions[n:]) + list(zip(right.T, closed.T))
    assert len(maps) == len(reference) == 2 * (n - 1)
    for (tgt, loops), (ref_tgt, ref_loops) in zip(maps, reference[::2] + reference[1::2]):
        np.testing.assert_array_equal(tgt, ref_tgt)
        np.testing.assert_array_equal(loops, ref_loops)


def test_tables_are_read_only():
    basis = diagram_basis(0, 8)
    tables = [basis.star, basis.cell_exponents, *basis.products, *basis.generator_columns]
    tables += [a for pair in basis.actions for a in pair]
    assert not any(a.flags.writeable for a in tables)


def test_cell_walk_raises_when_a_diagram_is_unreached(monkeypatch):
    basis = diagram.DiagramBasis(2, 6)
    last = len(basis.pairings) - 1
    cut = []
    for tgt, loops in basis.actions:
        # No move other than a loop on itself leads to the last diagram.
        tgt = np.where((tgt == last) & (np.arange(len(tgt)) != last), -1, tgt)
        cut.append((tgt, loops))
    monkeypatch.setattr(basis, "actions", tuple(cut))
    with pytest.raises(ArithmeticError, match="reached"):
        basis.cell_exponents


@pytest.mark.parametrize("n", range(9))
def test_product_table_matches_composition(n):
    basis = diagram_basis(0, 2 * n)
    targets, loops = basis.products
    pairings = basis.pairings
    size = len(pairings)
    assert targets.shape == loops.shape == (size, size)
    assert targets.dtype == np.int16 and loops.dtype == np.int8
    if n <= 7:
        pairs = [(i, j) for i in range(size) for j in range(size)]
    else:
        rng = random.Random(2024)
        pairs = [(rng.randrange(size), rng.randrange(size)) for _ in range(20_000)]
    for i, j in pairs:
        # D_i D_j stacks D_i on top of D_j.
        pairing, closed = diagram.compose_pairings(n, n, n, pairings[j], pairings[i])
        assert (pairings[targets[i, j]], loops[i, j]) == (pairing, closed)


@pytest.mark.parametrize("n", range(9))
def test_product_columns_match_the_product_table(n):
    basis = diagram_basis(0, 2 * n)
    size = len(basis.pairings)
    rng = random.Random(n)
    for cols in ([], [0], rng.sample(range(size), min(size, 30)), [size - 1] * 3):
        targets, loops = basis.product_columns(cols)
        assert targets.dtype == np.int16 and loops.dtype == np.int8
        np.testing.assert_array_equal(targets, basis.products[0][:, cols])
        np.testing.assert_array_equal(loops, basis.products[1][:, cols])


@pytest.mark.parametrize("n", (diagram.PRODUCTS_MAX_N + 1, diagram.PRODUCTS_MAX_N + 2))
def test_product_columns_match_composition_past_the_cutoff(n):
    basis = diagram.DiagramBasis(0, 2 * n)  # not cached: C(10) = 16,796
    pairings = basis.pairings
    rng = random.Random(n)
    cols = rng.sample(range(len(pairings)), 25)
    targets, loops = basis.product_columns(cols)
    for _ in range(500):
        i, c = rng.randrange(len(pairings)), rng.randrange(len(cols))
        pairing, closed = diagram.compose_pairings(n, n, n, pairings[cols[c]], pairings[i])
        assert (pairings[targets[i, c]], loops[i, c]) == (pairing, closed)
    assert "products" not in vars(basis)


@pytest.mark.parametrize("n", range(2, 11))
def test_right_products_match_composition(n):
    # The ideal's right closure and the phi walk read D f_i from the product
    # columns at the generators, on both sides of PRODUCTS_MAX_N.
    cached = n <= diagram.PRODUCTS_MAX_N
    basis = diagram_basis(0, 2 * n) if cached else diagram.DiagramBasis(0, 2 * n)
    pairings = basis.pairings
    targets, loops = basis.generator_columns
    assert targets.shape == loops.shape == (len(pairings), n - 1)
    for i in range(1, n):
        gen = diagram.generator_pairing(n, i)
        for k, pairing in enumerate(pairings):
            # D f_i stacks D on top of f_i.
            composed = diagram.compose_pairings(n, n, n, gen, pairing)
            assert (pairings[targets[k, i - 1]], loops[k, i - 1]) == composed
    assert cached or "products" not in vars(basis)


def test_product_table_only_on_tl_up_to_the_cutoff():
    assert diagram.PRODUCTS_MAX_N == 8
    for t, n in ((0, 2 * diagram.PRODUCTS_MAX_N + 2), (2, 6)):
        basis = diagram.DiagramBasis(t, n)
        with pytest.raises(ValueError, match="no product table"):
            basis.products


def test_product_walk_raises_when_a_diagram_is_unreached(monkeypatch):
    basis = diagram.DiagramBasis(0, 8)
    cut = basis.index[diagram.generator_pairing(4, 1)]
    moves = []
    for tgt, loops in basis.actions:
        # Every move into D_cut from another diagram stays where it is.
        source = np.arange(len(tgt))
        moves.append((np.where((tgt == cut) & (source != cut), source, tgt), loops))
    monkeypatch.setattr(basis, "actions", tuple(moves))
    with pytest.raises(ArithmeticError, match="reached"):
        basis.products


def test_phi_walk_raises_when_a_diagram_is_unreached(monkeypatch):
    n = 4
    basis = diagram.DiagramBasis(0, 2 * n)  # a fresh instance, not the cached one
    cut = basis.index[diagram.generator_pairing(n, 1)]
    targets, loops = basis.generator_columns
    # Every move into D_cut from another diagram stays where it is.
    source = np.arange(len(targets))[:, None]
    cut_targets = np.where((targets == cut) & (source != cut), source, targets)
    monkeypatch.setattr(basis, "generator_columns", (cut_targets, loops))
    monkeypatch.setattr(clifford, "diagram_basis", lambda t, n: basis)
    with pytest.raises(ArithmeticError, match="reached"):
        clifford._phi_table.__wrapped__(n)


def test_tl8_tables_compose_at_most_one_row(monkeypatch):
    calls = []
    real = diagram.compose_pairings

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(diagram, "compose_pairings", counted)
    basis = diagram.DiagramBasis(0, 16)  # a fresh instance, not the cached one
    meander, (right, _) = basis.cell_exponents, basis.generator_columns
    size = len(basis.pairings)
    assert size == 1430 and len(calls) <= size and right.shape == (size, 7)
    # The meander matrix is symmetric and pairs each diagram with itself to delta^8.
    assert (meander == meander.T).all() and (np.diagonal(meander) == 8).all()


@pytest.mark.parametrize("level, n", [(3, 2), (3, 3), (4, 3), (4, 5), (5, 6), (6, 6)])
def test_kill_check_matches_the_compose_based_check(monkeypatch, level, n):
    tlalg._assert_trace_kills_ideal(level, n)
    oracles.assert_trace_kills_ideal(level, n)
    # tr((E + f_1) 1) = tr(f_1) = 1/delta, so both checks must refuse E + f_1.
    real = tlalg.embedded_jones_wenzl
    monkeypatch.setattr(
        tlalg, "embedded_jones_wenzl", lambda l, m: real(l, m) + tlalg.generator(m, 1, l)
    )
    for check in (tlalg._assert_trace_kills_ideal, oracles.assert_trace_kills_ideal):
        with pytest.raises(ArithmeticError, match="radical theorem"):
            check(level, n)


def test_kill_check_and_phi_walk_read_tables_without_composing(monkeypatch):
    n = 5
    basis = diagram_basis(0, 2 * n)
    # The tables are built (by composing) before the patch; reading them is not.
    basis.trace_exponents, basis.actions
    expected = clifford._phi_table(n)

    def refuse(*args):
        raise AssertionError("a diagram pair was composed")

    for module in (diagram, tlalg, clifford):
        for name in ("compose_pairings", "closure_loops"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    tlalg._assert_trace_kills_ideal(4, n)
    assert clifford._phi_table.__wrapped__(n) == expected
