"""TL_n(q) at roots of unity: relations, trace, Jones-Wenzl, the ideal."""

from __future__ import annotations

import random
import tracemalloc

import numpy as np
import pytest

from oracles import ideal_dimension_exact, markov_trace, tl_product
from tlq import _intlinalg, diagram, exactnum, tlalg
from tlq.cellrep import quotient_labels, simple_dim_altsum
from tlq.combinatorics import catalan
from tlq.diagram import identity, tl_basis
from tlq.exactnum import cyclotomic_field, mod_p_image
from tlq.tlalg import (
    TLElement,
    embed,
    embedded_jones_wenzl,
    generator,
    ideal_dimension,
    jones_trace,
    jones_wenzl,
    jones_wenzl_by_recursion,
    radical_split,
    trace_gram_matrix,
    trace_gram_rank,
)

LEVELS = (3, 4, 5, 6, 7, 8)


def random_element(n: int, level: int, rng: random.Random) -> TLElement:
    """Each basis diagram with probability 1/2, its coefficient in -3..3."""
    field = cyclotomic_field(level)
    return TLElement(n, field, {
        d: field.from_int(rng.randint(-3, 3)) for d in tl_basis(n) if rng.random() < 0.5
    })


@pytest.mark.parametrize("level", LEVELS)
def test_defining_relations(level):
    field = cyclotomic_field(level)
    for n in range(2, 9):
        fs = [generator(n, i, level) for i in range(1, n)]
        one = TLElement.one(n, level)
        for i, f in enumerate(fs, start=1):
            assert f * f == field.delta * f
            assert one * f == f == f * one
            if i < n - 1:
                g = fs[i]
                assert f * g * f == f
                assert g * f * g == g
            for j in range(i + 2, n):
                assert f * fs[j - 1] == fs[j - 1] * f


def test_generator_index_errors():
    with pytest.raises(IndexError):
        generator(3, 3, 4)
    with pytest.raises(IndexError):
        generator(3, 0, 4)


def test_multiplication_strand_mismatch():
    with pytest.raises(ValueError):
        generator(3, 1, 4) * generator(4, 1, 4)
    with pytest.raises(ValueError):
        generator(3, 1, 4) * generator(3, 1, 5)


def test_trace_normalization_and_markov():
    for level in (3, 4, 5, 6):
        field = cyclotomic_field(level)
        dinv = field.delta.inverse()
        for n in (2, 3, 4):
            assert jones_trace(TLElement.one(n, level)) == field.one
        assert jones_trace(generator(2, 1, level)) == dinv
        rng = random.Random(100 + level)
        for n in (2, 3, 4):
            for _ in range(10):
                x = random_element(n, level, rng)
                xe = embed(x, n + 1)
                fn = generator(n + 1, n, level)
                assert jones_trace(xe * fn) == dinv * jones_trace(x)


def test_trace_symmetry():
    for level in (3, 4, 5, 6, 7, 8):
        for n in (2, 3, 4, 5, 6):
            rng = random.Random(level * 31 + n)
            for _ in range(200):
                a = random_element(n, level, rng)
                b = random_element(n, level, rng)
                assert jones_trace(a * b) == jones_trace(b * a)


def oracle_element(n: int, level: int, rng: random.Random, size: int, bits: int) -> TLElement:
    """An element on ``size`` random basis diagrams (every diagram when size
    is at least C(n)) with numerators up to 2^bits and mixed denominators."""
    field = cyclotomic_field(level)
    basis = tl_basis(n)
    support = basis if size >= len(basis) else rng.sample(basis, size)
    return TLElement(n, field, {
        d: field.from_coeffs(
            rng.choice((1, 2, 3, 35, 2**61 - 1)),
            [rng.randint(-(2**bits), 2**bits) for _ in range(field.degree)],
        )
        for d in support
    })


@pytest.mark.parametrize("level", LEVELS)
# n = 8 multiplies by the product table and n = 9 composes each term pair.
@pytest.mark.parametrize("n", range(10))
def test_product_and_trace_match_per_term_oracle(level, n):
    rng = random.Random(1000 * level + n)
    dense = catalan(n) if n <= 6 else 60
    for size, bits in ((1, 4), (3, 8), (dense, 3), (dense, 90)):
        x = oracle_element(n, level, rng, size, bits)
        y = oracle_element(n, level, rng, size, bits)
        prod = x * y
        assert prod == tl_product(x, y)
        assert jones_trace(prod) == markov_trace(prod)
        assert jones_trace(x) == markov_trace(x)
    zero = TLElement.zero(n, level)
    assert x * zero == zero == zero * x
    assert jones_trace(zero) == markov_trace(zero)


def _raise(*args, **kwargs):
    raise AssertionError("a per-term route was taken")


@pytest.mark.parametrize("level", (3, 5, 8))
def test_table_products_and_traces_take_no_per_term_route(level, monkeypatch):
    # Up to PRODUCTS_MAX_N the product and the trace read the basis tables
    # and sum on coefficient planes: no closure is walked and no pair is
    # composed.
    rng = random.Random(level)
    cases = []
    for n in range(diagram.PRODUCTS_MAX_N + 1):
        for bits in (3, 90):
            size = min(catalan(n), 40)
            x = oracle_element(n, level, rng, size, bits)
            y = oracle_element(n, level, rng, size, bits)
            cases.append((x, y, markov_trace(tl_product(x, y))))
    monkeypatch.setattr(diagram, "closure_loops", _raise)
    monkeypatch.setattr(tlalg, "closure_loops", _raise)
    monkeypatch.setattr(tlalg, "compose_pairings", _raise)
    for x, y, expected in cases:
        assert jones_trace(x * y) == expected


def test_product_past_the_int64_bound(monkeypatch):
    # The product's checked bound is set just past 2^62 (Python integers)
    # and just below it (int64); both must match the per-term oracle.
    level, n = 5, 4
    field = cyclotomic_field(level)
    rng = random.Random(62)
    unit = [
        TLElement(n, field, {
            d: field.from_coeffs(1, [rng.randint(-3, 3) for _ in range(field.degree)])
            for d in tl_basis(n)
        })
        for _ in range(2)
    ]
    real = exactnum.int_dtype
    bounds = []

    def recorded(bound):
        bounds.append(bound)
        return real(bound)

    def product_bound(x, y):
        # The sums' bound is the largest checked: it multiplies the bounds
        # of both coefficient planes.
        bounds.clear()
        product = x * y
        return max(bounds), product

    monkeypatch.setattr(exactnum, "int_dtype", recorded)
    base, _ = product_bound(*unit)
    a = 2**30
    b = -(-(2**62) // (base * a))
    # Raises, not asserts: this test is also run under python -O.
    for scale_b, past in ((b, True), (b - 1, False)):
        x, y = unit[0].scale(a), unit[1].scale(scale_b)
        bound, product = product_bound(x, y)
        if (bound >= 2**62) != past or not bound < 2**62 + base * a:
            raise AssertionError((bound, past))
        if product != tl_product(x, y):
            raise AssertionError("the product differs from the per-term oracle")


def test_jw8_square_stays_small_in_memory():
    # E_8 E_8 at level 9 multiplies 1430^2 pairs; they are formed in blocks.
    e = jones_wenzl(9).element
    diagram.diagram_basis(0, 16).products
    tracemalloc.start()
    try:
        square = e * e
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20, peak
    assert square == e


def test_product_element_equals_and_hashes_like_its_terms():
    level, n = 6, 5
    rng = random.Random(5)
    x, y = (oracle_element(n, level, rng, 20, 8) for _ in range(2))
    first, second = x * y, x * y
    built = TLElement(n, cyclotomic_field(level), dict((x * y).terms))
    assert first == built and built == first
    assert hash(second) == hash(built)
    # A product whose terms were read still multiplies like the dict element.
    assert first * y == built * y == tl_product(built, y)


@pytest.mark.parametrize("level", LEVELS)
def test_products_and_traces_that_cancel(level):
    field = cyclotomic_field(level)
    rng = random.Random(level)
    # A small numerator keeps the product in int64 under a denominator
    # past it.
    small = field.from_coeffs(2**61 - 1, list(range(1, field.degree + 1)))
    for n in range(2, 8):
        big = field.from_coeffs(2**61 - 1, [rng.randint(-(2**85), 2**85) for _ in range(field.degree)])
        f1, one = generator(n, 1, level), TLElement.one(n, level)
        for c in (big, small):
            # f1 (f1 - delta) = 0 and tr(1 - delta f1) = 0.
            x, y = c * f1, c * (f1 - field.delta * one)
            assert (x * y).is_zero() and tl_product(x, y).is_zero()
            t = c * (one - field.delta * f1)
            assert jones_trace(t).is_zero() and markov_trace(t).is_zero()


def test_products_past_the_cutoff_build_no_product_table():
    n = diagram.PRODUCTS_MAX_N + 1
    f = [generator(n, i, 5) for i in range(1, n)]
    x = f[0] * f[7] + f[3] * f[4]
    assert x * f[2] == tl_product(x, f[2])
    assert "products" not in vars(diagram.diagram_basis(0, 2 * n))


def test_products_and_traces_at_n12_enumerate_no_basis(monkeypatch):
    def no_basis(*args):
        raise AssertionError("a diagram basis was enumerated")

    monkeypatch.setattr(diagram, "monic_pairings", no_basis)
    level = 5
    dinv = cyclotomic_field(level).delta.inverse()
    f = [generator(12, i, level) for i in range(1, 12)]
    x = f[0] * f[5] * f[10] + f[3]
    y = f[1] * f[0] + f[6] * f[6]
    assert x * y == tl_product(x, y)
    assert jones_trace(x * y) == markov_trace(tl_product(x, y))
    assert jones_trace(f[0] * f[5]) == dinv * dinv


def test_jw_level3_verbatim():
    e2 = jones_wenzl(3).element
    assert e2 == TLElement.one(2, 3) - generator(2, 1, 3)


def test_jw_level4_verbatim():
    field = cyclotomic_field(4)
    f1, f2 = generator(3, 1, 4), generator(3, 2, 4)
    expected = TLElement.one(3, 4) + f1 * f2 + f2 * f1 - field.delta * (f1 + f2)
    assert jones_wenzl(4).element == expected


@pytest.mark.parametrize("level", (3, 4, 5, 6))
def test_jw_defining_properties(level):
    e = jones_wenzl(level).element
    n = level - 1
    field = cyclotomic_field(level)
    assert e * e == e
    assert e.coefficient(identity(n)) == field.one
    for i in range(1, n):
        f = generator(n, i, level)
        assert (f * e).is_zero()
        assert (e * f).is_zero()
    assert jones_trace(e).is_zero()
    assert len(e.terms) == catalan(n)  # every hook coefficient is nonzero


@pytest.mark.parametrize("level", (3, 4, 5, 6))
def test_jw_matches_recursion_oracle(level):
    assert jones_wenzl(level).element == jones_wenzl_by_recursion(level)


def test_built_diagrams_run_no_planarity_check(monkeypatch):
    # The basis, the hook formula's flat rotations, the embedding and the
    # constructors below build planar pairings by construction; only a
    # diagram from outside input is checked.
    def refuse(pairing):
        raise AssertionError("a planarity check ran")

    monkeypatch.setattr(diagram, "_is_noncrossing_involution", refuse)
    e = jones_wenzl.__wrapped__(9).element
    assert len(e.terms) == len(embedded_jones_wenzl.__wrapped__(9, 9).terms) == catalan(8)
    f1, one = diagram.generator_diagram(9, 1), identity(9)
    assert diagram.compose(diagram.star(f1), one) == (f1, 0)
    with pytest.raises(AssertionError, match="planarity"):
        diagram.Diagram(2, 2, (1, 0, 3, 2))


def test_embed():
    for level in (4, 5):
        assert embed(TLElement.one(3, level), 6) == TLElement.one(6, level)
        assert embed(generator(3, 2, level), 6) == generator(6, 2, level)
        x = generator(3, 1, level) * generator(3, 2, level)
        y = generator(3, 2, level) * generator(3, 1, level)
        # Embedding is an algebra homomorphism.
        assert embed(x, 5) * embed(y, 5) == embed(x * y, 5)
    with pytest.raises(ValueError):
        embed(TLElement.one(4, 4), 3)


def test_star_antiautomorphism():
    rng = random.Random(7)
    for level in (4, 5):
        for _ in range(25):
            a = random_element(3, level, rng)
            b = random_element(3, level, rng)
            assert (a * b).star() == b.star() * a.star()


def test_ideal_dimension_small_values():
    # At n = level-1 = 3 the idempotent spans the one-dimensional top cell
    # block of semisimple TL_3; frozen as a regression anchor.
    assert ideal_dimension_exact(4, 3) == 1
    assert ideal_dimension_exact(4, 4) == catalan(4) - 8
    assert ideal_dimension_exact(5, 4) == 14 - 13
    with pytest.raises(ValueError):
        ideal_dimension(4, 2)


def test_ideal_dimension_methods_agree():
    for level, n in ((3, 3), (3, 4), (4, 4), (4, 5), (5, 5)):
        assert ideal_dimension_exact(level, n) == ideal_dimension(level, n)


def test_generator_map_fibers_hold_at_most_n_diagrams():
    # Phase two of the ideal rank sums the fibers of D -> D f_i, each term
    # below (p-1)^2, so its checked bound n (p-1)^2 < 2**53 holds at every
    # working prime.
    for n in range(2, 8):
        right, _ = diagram.diagram_basis(0, 2 * n).generator_columns
        assert max(int(np.bincount(tgt).max()) for tgt in right.T) == n
        assert n * (_intlinalg._PRIME_HI - 1) ** 2 < _intlinalg._F64_SAFE


@pytest.mark.parametrize("k, t", [(1, 7), (5, 3), (7, 2**50 + 1)])
def test_row_sums_bound_counts_terms_per_slot(monkeypatch, k, t):
    # Row 0 puts k terms t in slot 2, row 1 puts k ones there; the check
    # reads (most terms in one slot of one row) x (largest term) = k t.
    targets = np.array([[2] * k + [0]])
    terms = np.array([[t] * k + [1], [1] * (k + 1)], dtype=np.float64)
    monkeypatch.setattr(_intlinalg, "_F64_SAFE", k * t + 1)
    rows = tlalg._row_sums(targets, terms, 4)
    assert rows.tolist() == [[1, 0, k * t, 0], [1, 0, k, 0]]
    monkeypatch.setattr(_intlinalg, "_F64_SAFE", k * t)
    with pytest.raises(ArithmeticError, match="ideal row sums"):
        tlalg._row_sums(targets, terms, 4)


def test_row_sums_bound_catches_many_terms_below_2_53():
    # Each term is exact in float64 but three of them sum past 2**53, where
    # float64 rounds the odd total: the check raises before summing.
    t = 2**52 + 1
    assert t < _intlinalg._F64_SAFE <= 3 * t and int(np.bincount([0] * 3, [t] * 3)[0]) != 3 * t
    with pytest.raises(ArithmeticError, match="ideal row sums"):
        tlalg._row_sums(np.zeros((1, 3), dtype=np.intp), np.full((1, 3), float(t)), 1)


def _ideal_rank_with_bound(monkeypatch, bound):
    """The level-4, n = 5 ideal rank with the row sums held below ``bound``,
    and the echelon it built (built first, under the true bound)."""
    p = next(_intlinalg.working_primes(order=8))
    built, real = [], _intlinalg.ModpEchelon

    def echelon(ncols, p):
        built.append(real(ncols, p))
        monkeypatch.setattr(_intlinalg, "_F64_SAFE", bound(p))
        return built[-1]

    monkeypatch.setattr(_intlinalg, "ModpEchelon", echelon)
    with pytest.raises(ArithmeticError, match="ideal row sums"):
        tlalg._ideal_span_rank_modp(4, 5, p, mod_p_image(4, p), catalan(5))
    return built[0]


def test_ideal_closure_checks_the_fiber_bound(monkeypatch):
    # A row of TL_5 E sums at most 5 residues below p per slot, since E_3 has
    # C(3) = 5 diagrams, so phase one passes.  A phase-two term is a residue
    # below p times delta^l mod p for some l <= 5, so below the bound; a
    # fiber of several such terms reaches it.
    def bound(p):
        delta = mod_p_image(4, p)(cyclotomic_field(4).delta)
        return (p - 1) * max(pow(delta, l, p) for l in range(6)) + 1

    ech = _ideal_rank_with_bound(monkeypatch, bound)
    assert 0 < ech.rank < catalan(5)


def test_left_ideal_checks_the_column_sum_bound(monkeypatch):
    # Every phase-one term is a residue below p, and so below the bound; the
    # slots where several diagrams of E land fail, before any row enters.
    ech = _ideal_rank_with_bound(monkeypatch, lambda p: p)
    assert ech.rank == 0


@pytest.mark.parametrize("level", range(3, 8))
def test_ideal_dimension_is_catalan_minus_the_semisimple_part(level):
    # dim <E> = C(n) - dim Q_n, and Q_n is the sum of the squares of the
    # simple dimensions by the alternating sum.
    for n in range(level - 1, 8):
        semisimple = sum(simple_dim_altsum(t, n, level) ** 2 for t in quotient_labels(level, n))
        assert radical_split(level, n).ideal_dim == catalan(n) - semisimple, n


def test_ideal_step_stays_small_in_memory():
    # At level 3, n = 8 the closure reaches rank 1429 of 1430; the echelon
    # alone is 16 MB, and the left ideal and the right products enter in
    # bounded blocks.
    level, n = 3, 8
    p = next(_intlinalg.working_primes(order=2 * level))
    image = mod_p_image(level, p)
    diagram.diagram_basis(0, 2 * n).actions, embedded_jones_wenzl(level, n)
    tracemalloc.start()
    try:
        rank = tlalg._ideal_span_rank_modp(level, n, p, image, catalan(n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rank == catalan(n) - 1
    assert peak < 70 * 2**20, peak


def test_trace_gram_rank_pattern():
    # Nondegenerate exactly when n <= level-2 (and rank drops from level-1).
    for level in (4, 5, 6):
        for n in range(2, 7):
            rank = trace_gram_rank(level, n)
            if n <= level - 2:
                assert rank == catalan(n), (level, n)
            else:
                assert rank < catalan(n), (level, n)
                assert rank == catalan(n) - ideal_dimension(level, n)


def test_trace_gram_rank_below_the_idempotent_matches_the_cycnum_matrix():
    # Below n = level - 1 the rank runs on Z[delta] planes of the meander
    # matrix, delta^n times the Gram matrix with its rows relabelled by star;
    # the CycNum matrix, read from the product columns, is ranked over
    # Q(zeta_2l).
    for level in (4, 5, 6, 7, 8):
        for n in range(1, min(level - 1, 7)):
            assert trace_gram_rank(level, n) == trace_gram_matrix(level, n).rank(), (level, n)


def test_radical_split_certificate_consistency():
    for level, n in ((4, 6), (5, 6), (6, 6)):
        split = radical_split(level, n)
        assert split.gram_rank + split.ideal_dim == catalan(n)
        assert split.gram_rank == trace_gram_matrix(level, n).rank()


def _fresh_split(level: int, n: int):
    radical_split.cache_clear()
    try:
        return radical_split(level, n)
    finally:
        radical_split.cache_clear()


def _unlucky_image(level, p):
    return lambda c: 0


def _unlucky_span(level, n, p, image, target):
    return target - 1


# An unlucky prime shows as one of these: delta vanishes mod p, or the mod-p
# ideal span falls short of the pin.
FAULTS = {"mod_p_image": _unlucky_image, "_ideal_span_rank_modp": _unlucky_span}


def _inject(monkeypatch, name: str, times: float) -> list:
    """Make the first ``times`` calls of tlalg.<name> take its fault."""
    real = getattr(tlalg, name)
    calls = []

    def patched(*args):
        calls.append(args)
        return (FAULTS[name] if len(calls) <= times else real)(*args)

    monkeypatch.setattr(tlalg, name, patched)
    return calls


@pytest.mark.parametrize("name", sorted(FAULTS))
def test_radical_split_retries_after_unlucky_prime(monkeypatch, name):
    expected = _fresh_split(4, 5)
    calls = _inject(monkeypatch, name, times=1)
    assert _fresh_split(4, 5) == expected
    assert len(calls) == 2


@pytest.mark.parametrize("name", sorted(FAULTS))
def test_radical_split_raises_when_every_prime_fails(monkeypatch, name):
    _inject(monkeypatch, name, times=float("inf"))
    with pytest.raises(ArithmeticError):
        _fresh_split(4, 5)


def test_trace_of_idempotent_times_basis_vanishes():
    # The exact inclusion <E> within the radical of the trace, spot checked
    # (the acceptance machinery relies on the same computation).
    for level, n in ((4, 4), (5, 5), (3, 4)):
        e = embedded_jones_wenzl(level, n)
        for d in tl_basis(n):
            assert jones_trace(e * TLElement.from_diagram(d, level)).is_zero()


def test_trace_of_a_broken_idempotent_is_caught(monkeypatch):
    # With E + f_1 in place of E, tr((E + f_1) y) != 0 for some y, and the
    # exact check inside radical_split must refuse to pin.
    real = tlalg.embedded_jones_wenzl

    def broken(level, n):
        return real(level, n) + generator(n, 1, level)

    monkeypatch.setattr(tlalg, "embedded_jones_wenzl", broken)
    for level, n in ((3, 3), (4, 5), (5, 6)):
        with pytest.raises(ArithmeticError, match="radical theorem"):
            _fresh_split(level, n)


@pytest.mark.parametrize("level", (3, 4, 5, 6))
def test_trace_gram_matrix_entries_are_traces_of_products(level):
    # The entries come from the product columns and the closure loops of
    # each product; each must be the per-term trace of the per-term product
    # D_i D_j.
    for n in range(1, 6):
        basis = [TLElement.from_diagram(d, level) for d in tl_basis(n)]
        gram = trace_gram_matrix(level, n)
        for i, x in enumerate(basis):
            for j, y in enumerate(basis):
                assert gram.rows[i][j] == markov_trace(tl_product(x, y)), (n, i, j)


def test_tl_trace_reads_no_star_permutation(monkeypatch):
    # The trace table is the meander matrix with its rows relabelled by star,
    # so every trace reader reads the meander as it is: once the meanders of
    # fresh bases are built, no diagram is starred.
    ranks = [(6, 3), (8, 5), (4, 5)]  # both sides of n = level - 1
    expected = [trace_gram_rank(level, n) for level, n in ranks], _fresh_split(4, 6)
    elements = [random_element(n, 5, random.Random(n)) for n in range(1, 9)]
    traces = [markov_trace(x) for x in elements]
    diagram.diagram_basis.cache_clear()
    for n in range(1, 9):
        diagram.diagram_basis(0, 2 * n).cell_exponents  # its row 0 pairs with a starred diagram

    def refuse(*args):
        raise AssertionError("a diagram was starred")

    monkeypatch.setattr(diagram, "star_pairing", refuse)
    assert [jones_trace(x) for x in elements] == traces
    for level, n in ((3, 4), (4, 5), (5, 6)):
        tlalg._assert_trace_kills_ideal(level, n)
    radical_split.cache_clear()
    try:
        assert [trace_gram_rank(level, n) for level, n in ranks] == expected[0]
        assert radical_split(4, 6) == expected[1]
    finally:
        radical_split.cache_clear()
