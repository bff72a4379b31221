"""The indexed diagram basis: its index and tables against the per-pair
loops that each consumer ran before it, and the meander identities the
trace readers rest on."""

from __future__ import annotations

import random

import numpy as np
import pytest

import oracles
from tlq import cellrep, clifford, diagram, tlalg
from tlq.cellrep import CellVector, admissible_t, cell_pairing
from tlq.diagram import closure_loops, diagram_basis, identity_pairing, star_pairing, tl_pairings
from tlq.exactnum import cyclotomic_field

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
    basis = diagram_basis(t, n)
    targets, loops = basis.actions
    reference = oracles.cell_generator_actions(t, n)
    assert targets.shape == loops.shape == (len(reference), len(basis.pairings))
    assert len(reference) == max(n - 1, 0)
    for k, (ref_tgt, ref_loops) in enumerate(reference):
        np.testing.assert_array_equal(targets[k], ref_tgt)
        np.testing.assert_array_equal(loops[k], ref_loops)


@pytest.mark.parametrize("n", TL_N)
def test_tl_tables_match_the_per_pair_loops(n):
    basis = diagram_basis(0, 2 * n)
    assert basis.pairings == tl_pairings(n)
    meander = basis.cell_exponents
    np.testing.assert_array_equal(meander, oracles.cell_gram_exponents(0, 2 * n))
    assert (meander == meander.T).all()
    # The trace table is the meander read at the star of each column (and so,
    # both being symmetric, at the star of each row); its identity column is
    # the closure loops.
    star = [basis.index[star_pairing(2 * n, p)] for p in basis.pairings]
    trace = oracles.trace_exponents(n)
    np.testing.assert_array_equal(meander[:, star], trace)
    closure = [closure_loops(n, p) for p in basis.pairings]
    np.testing.assert_array_equal(meander[:, basis.index[identity_pairing(n)]], closure)
    # trace_gram_matrix reads loops from the product columns instead.  At
    # level 5 |delta| > 1, so its entries delta^(c - n) pin the exponents c.
    field = cyclotomic_field(5)
    scaled = [field.delta ** (c - n) for c in range(n + 1)]
    gram = tlalg.trace_gram_matrix(5, n).rows
    assert gram == [[scaled[c] for c in row] for row in trace.tolist()]
    # f_i D is row n-1+i of the actions on the flat points, D f_i row n-1-i,
    # which is column f_i of the products.  The reference interleaves them:
    # f_1 left, f_1 right, ...
    reference = oracles.generator_action_maps(n)
    targets, counts = basis.actions
    right, closed = basis.generator_columns
    maps = list(zip(targets[n:], counts[n:])) + list(zip(right.T, closed.T))
    maps += [(targets[n - 1 - i], counts[n - 1 - i]) for i in range(1, n)]
    assert len(maps) == len(reference) + n - 1 == 3 * (n - 1)
    for (tgt, loops), (ref_tgt, ref_loops) in zip(maps, reference[::2] + 2 * reference[1::2]):
        np.testing.assert_array_equal(tgt, ref_tgt)
        np.testing.assert_array_equal(loops, ref_loops)


def test_tables_are_read_only():
    basis = diagram_basis(0, 8)
    targets, loops = basis.actions
    tables = [basis.cell_exponents, *basis.products, *basis.generator_columns]
    tables += [targets, loops, *targets, *loops]  # the stacked pair and each of its rows
    assert not any(a.flags.writeable for a in tables)


def _distances(start, hops):
    """Move distance from D_start to every diagram, by relaxing all moves
    until nothing changes (no breadth-first queue)."""
    dist = np.full(hops.shape[1], hops.shape[1], dtype=np.intp)
    dist[start] = 0
    source = np.arange(hops.shape[1])
    while True:
        before = dist.copy()
        for tgt in hops:
            np.minimum.at(dist, tgt[tgt >= 0], dist[source[tgt >= 0]] + 1)
        if (dist == before).all():
            return dist


def _walks():
    for t, n in CELLS:
        yield diagram_basis(t, n), 0, diagram_basis(t, n).actions[0]
    for n in TL_N:
        basis = diagram_basis(0, 2 * n)
        start = basis.index[diagram.identity_pairing(n)]
        targets = basis.actions[0]
        yield basis, start, targets[n:]  # the left moves, as the product columns walk
        yield basis, start, basis.generator_columns[0].T  # the right moves, as phi
        yield basis, start, targets


def test_walk_rounds_are_the_move_distances():
    for basis, start, hops in _walks():
        rounds = basis.walk(start, hops)
        dist = _distances(start, hops)
        reached = sorted(k for steps in rounds for _, _, k in steps)
        assert reached == sorted(set(range(len(basis.pairings))) - {start})
        for r, steps in enumerate(rounds, 1):
            assert sorted(k for _, _, k in steps) == np.flatnonzero(dist == r).tolist()
            assert all(hops[move, i] == k and dist[i] == r - 1 for i, move, k in steps)
        assert len(rounds) == dist.max()


def test_generator_columns_are_views_of_the_actions(monkeypatch):
    def refuse(*args):
        raise AssertionError("walked")

    monkeypatch.setattr(diagram.DiagramBasis, "walk", refuse)
    for n in range(2, 7):
        basis = diagram.DiagramBasis(0, 2 * n)  # a fresh instance, not the cached one
        for column, table in zip(basis.generator_columns, basis.actions):
            assert np.shares_memory(column, table)
            assert column.shape == (len(basis.pairings), n - 1)
            for i in range(1, n):
                np.testing.assert_array_equal(column[:, i - 1], table[n - 1 - i])


def test_cell_walk_raises_when_a_diagram_is_unreached(monkeypatch):
    basis = diagram.DiagramBasis(2, 6)
    last = len(basis.pairings) - 1
    targets, loops = basis.actions
    # No move other than a loop on itself leads to the last diagram.
    cut = np.where((targets == last) & (np.arange(last + 1) != last), -1, targets)
    monkeypatch.setattr(basis, "actions", (cut, loops))
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
    targets, loops = basis.actions
    # Every move into D_cut from another diagram stays where it is.
    source = np.arange(targets.shape[1])
    moves = np.where((targets == cut) & (source != cut), source, targets)
    monkeypatch.setattr(basis, "actions", (moves, loops))
    with pytest.raises(ArithmeticError, match="reached"):
        basis.products


def test_phi_walk_raises_when_a_diagram_is_unreached(monkeypatch):
    n = 4
    basis = diagram.DiagramBasis(0, 2 * n)  # a fresh instance, not the cached one
    cut = basis.index[diagram.generator_pairing(n, 1)]
    targets, loops = basis.actions
    # Every right move (the bottom n - 1 rows) into D_cut from another
    # diagram stays where it is.
    source = np.arange(targets.shape[1])
    right = np.where((targets[: n - 1] == cut) & (source != cut), source, targets[: n - 1])
    monkeypatch.setattr(basis, "actions", (np.concatenate((right, targets[n - 1 :])), loops))
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
    basis.cell_exponents, basis.actions
    cell = diagram_basis(2, 6)
    v, w = (CellVector.from_diagram(diagram.Diagram(2, 6, cell.pairings[i]), 4) for i in (0, -1))
    # The cell form composes each pair of diagrams (no size^2 table), so it
    # is checked before the patch.
    assert cell_pairing(v, w + v) == oracles.cell_pairing(v, w + v)
    expected = clifford._phi_table(n)

    def refuse(*args):
        raise AssertionError("a diagram pair was composed")

    for module in (diagram, tlalg, clifford, cellrep):
        for name in ("compose_pairings", "closure_loops"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    tlalg._assert_trace_kills_ideal(4, n)
    assert clifford._phi_table.__wrapped__(n) == expected
