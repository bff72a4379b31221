"""The shared linear-combination type and the one exact product-sum step:
cell vectors, Clifford blades and phi against their per-term loops, every
product route through the step, and the one compatibility check for TL_n
elements, cell vectors and blades."""

from __future__ import annotations

import inspect
import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

import oracles
from tlq import cellrep, clifford, exactnum, tlalg
from tlq.cellrep import CellVector, admissible_t, cell_action, cell_pairing
from tlq.clifford import BladeElement, gamma, phi
from tlq.diagram import Diagram, diagram_basis, enumerate_monic, tl_basis
from tlq.exactnum import CycNum, LinComb, cyclotomic_field
from tlq.tlalg import TLElement, generator, jones_trace

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
    # the two terms of each image cancel inside one sum of the step.
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


def int64_cases() -> dict:
    """The cell action, the cell form, the blade product and phi on small
    operands: (operation, per-term oracle, x, y), where the step's checked
    bound is linear in the scale of x."""
    rng = random.Random(62)
    f4, f5 = cyclotomic_field(4), cyclotomic_field(5)

    def small(field):
        return field.from_coeffs(1, [rng.randint(-3, 3) for _ in range(field.degree)])

    x = TLElement(4, f5, {d: small(f5) for d in tl_basis(4)})
    v, w = (CellVector(2, 4, f5, {d: small(f5) for d in enumerate_monic(2, 4)}) for _ in range(2))
    a, b = (BladeElement(4, {m: small(f4) for m in range(16)}) for _ in range(2))
    p = TLElement(4, f4, {d: small(f4) for d in tl_basis(4)})
    return {
        "cell action": (lambda x, v: cell_action(x, v), oracles.cell_action, x, v),
        "cell form": (cell_pairing, oracles.cell_pairing, v, w),
        "blade product": (lambda a, b: a * b, oracles.blade_product, a, b),
        "phi": (lambda p, _: phi(p), lambda p, _: oracles.phi(p), p, None),
    }


@pytest.mark.parametrize("route", ("cell action", "cell form", "blade product", "phi"))
def test_products_at_the_int64_bound(route, monkeypatch):
    # The step's checked bound is set just past 2^62 (Python integers), just
    # below it (int64) and far past it, where int64 sums would wrap; all of
    # them, and empty operands, must match the per-term oracle.  Raises, not
    # asserts: this test also runs under -O.
    op, oracle, x, y = int64_cases()[route]
    real = exactnum.int_dtype
    bounds = []

    def recorded(bound):
        bounds.append(bound)
        return real(bound)

    def bound_and_result(x):
        # The sums' bound is the largest checked: it multiplies the bounds
        # of the coefficient planes.
        bounds.clear()
        result = op(x, y)
        return max(bounds), result

    op(x, y)  # builds the cached tables (phi's images) before any bound is read
    monkeypatch.setattr(exactnum, "int_dtype", recorded)
    base, _ = bound_and_result(x)
    scale = -(-(2**62) // base)
    # x's numerators are at most 3: 2^59 keeps them in int64 planes.
    for s, past in ((scale, True), (scale - 1, False), (2**59, True)):
        bound, result = bound_and_result(x.scale(s))
        if (bound >= 2**62) != past or not (bound < 2**62 + base or s == 2**59):
            raise AssertionError((bound, past))
        if result != oracle(x.scale(s), y):
            raise AssertionError(f"the {route} differs from the per-term oracle")
    empty = [(x.scale(0), y)] + ([] if y is None else [(x, y.scale(0))])
    for args in empty:
        if op(*args) != oracle(*args):
            raise AssertionError(f"the {route} of an empty operand")


def test_every_product_route_reaches_the_one_step(monkeypatch):
    calls, pair_calls = [], []
    real, real_pairs = exactnum.weighted_sums, exactnum.pair_sums

    def counted(*args):
        # Record which function took the step.
        calls.append(sys._getframe(1).f_code.co_name)
        return real(*args)

    def counted_pairs(*args):
        pair_calls.append(sys._getframe(1).f_code.co_name)
        return real_pairs(*args)

    for module in (exactnum, tlalg, cellrep, clifford):
        if "weighted_sums" in vars(module):
            monkeypatch.setattr(module, "weighted_sums", counted)
        if module is not exactnum and "pair_sums" in vars(module):
            monkeypatch.setattr(module, "pair_sums", counted_pairs)
    f = [generator(9, i, 5) for i in range(1, 9)]
    v = CellVector.from_diagram(enumerate_monic(1, 3)[0], 5)
    routes = {
        "TL product": lambda: generator(4, 1, 5) * generator(4, 2, 5),
        "TL product past the table": lambda: f[0] * f[2],
        "trace": lambda: jones_trace(generator(4, 1, 5)),
        "kill check": lambda: tlalg._assert_trace_kills_ideal(5, 4),
        "cell action": lambda: cell_action(generator(3, 1, 5), v),
        "cell form": lambda: cell_pairing(v, v),
        "blade product": lambda: gamma(3, 1) * gamma(3, 2),
        "phi": lambda: phi(generator(3, 1, 4)),
        "annihilation check": lambda: cellrep.annihilation_check.__wrapped__(2, 4, 4),
    }
    products = {
        "TL product": "__mul__",
        "TL product past the table": "__mul__",
        "cell action": "cell_action",
        "cell form": "cell_pairing",
        "blade product": "__mul__",
    }
    for name, route in routes.items():
        calls.clear()
        pair_calls.clear()
        route()
        assert calls, name
        # Every product of two combinations is one pair_sums call.
        if name in products:
            assert pair_calls == [products[name]], name
    # The annihilation check sums its form values on the step, not only
    # its cell actions.
    assert "table_sums" in calls
    # One kernel: no packed product kernel (a class, a loop or a helper)
    # may come back beside the step, and no second pair encoding either:
    # no products helper but the plane arithmetic (the hit-list adapter
    # is gone), and no signed weight planes.
    assert not [name for name in dir(exactnum) if "pack" in name.lower() and name[:2] != "__"]
    assert [name for name in dir(exactnum) if name.endswith("_products")] == ["plane_products"]
    assert list(inspect.signature(exactnum.weight_planes).parameters) == ["weights"]


# The edge paths of exactnum.pair_sums, each against the per-term oracles.
# Raises, not asserts: these tests also run under -O.


def check(ok: bool, what) -> None:
    if not ok:
        raise AssertionError(what)


@pytest.mark.parametrize("level", (4, 5, 7))
def test_pair_sums_edge_every_pair_dropped(level):
    rng = random.Random(level)
    field = cyclotomic_field(level)
    # Every diagram of z f_1 joins two through strands of the top cell
    # W_n(n): no composite is monic.
    for n in range(2, 8):
        x = random_tl_element(n, level, rng) * generator(n, 1, level)
        v = random_cell_vector(n, n, level, rng)
        check(not x.is_zero(), n)
        xv = cell_action(x, v)
        check(xv.is_zero() and xv == oracles.cell_action(x, v) and xv.space == (n, n), n)
    # Cell forms whose composites never close to the identity of t: the
    # exponent -1 entries of the form table.
    for t, n in ((2, 4), (3, 5), (2, 6), (4, 6)):
        basis, monic = diagram_basis(t, n), enumerate_monic(t, n)
        expo = basis.cell_exponents
        for i in range(len(monic)):
            zeros = [monic[j] for j in range(len(monic)) if expo[i, j] < 0]
            if not zeros:
                continue
            v = CellVector(t, n, field, {monic[i]: big_coefficient(field, rng)})
            w = CellVector(t, n, field, {d: big_coefficient(field, rng) for d in zeros})
            for a, b in ((v, w), (w, v)):
                form = cell_pairing(a, b)
                check(form.is_zero() and form == oracles.cell_pairing(a, b), (t, n, i))


@pytest.mark.parametrize("level", (3, 5))
def test_pair_sums_edge_past_the_table_cancels_to_zero(level):
    # (f_1 - delta) f_1 = 0 in TL_9, past PRODUCTS_MAX_N: every result of
    # (f_1 - delta) (f_1 z) cancels inside the one call.
    rng = random.Random(level)
    field = cyclotomic_field(level)
    f1 = generator(9, 1, level)
    x = big_coefficient(field, rng) * (f1 - field.delta * TLElement.one(9, level))
    y = f1 * random_tl_element(9, level, rng)
    check(not y.is_zero(), "f_1 z vanished")
    xy = x * y
    check(xy.is_zero() and xy.n == 9 and oracles.tl_product(x, y).is_zero(), level)
    # A product that keeps some terms: the cancelling pairs beside the rest.
    z = random_tl_element(9, level, rng)
    check(x * (y + z) == oracles.tl_product(x, y + z), level)


def test_pair_sums_edge_sparse_blades_at_n_40():
    # Result masks up to 2^40: one slot per mask would not fit in memory.
    rng = random.Random(40)
    field = cyclotomic_field(4)
    xs = (1 << 39 | 1, 1 << 20 | 1 << 21, 1 << 39 | 1 << 38 | 0b11)
    ys = (1 << 38 | 0b10, 1 << 21 | 1 << 5, 0)
    for _ in range(3):
        x = BladeElement(40, {m: big_coefficient(field, rng) for m in xs})
        y = BladeElement(40, {m: big_coefficient(field, rng) for m in ys})
        xy = x * y
        check(xy == oracles.blade_product(x, y) and max(xy.terms) >> 39, "n = 40")


def test_pair_sums_edge_empty_operands():
    rng = random.Random(0)
    level = 4
    field = cyclotomic_field(level)
    for n in (4, 9):  # the product table and past it
        x = random_tl_element(n, level, rng)
        for a, b in ((x, x.scale(0)), (x.scale(0), x), (x.scale(0), x.scale(0))):
            ab = a * b
            check(ab.is_zero() and ab.n == n and ab == oracles.tl_product(a, b), ("TL", n))
    for t, n in ((1, 3), (2, 6), (0, 4)):
        x, v = random_tl_element(n, level, rng), random_cell_vector(t, n, level, rng)
        for a, b in ((x, v.scale(0)), (x.scale(0), v)):
            av = cell_action(a, b)
            check(av.is_zero() and av.space == (t, n) and av == oracles.cell_action(a, b), (t, n))
        for a, b in ((v, v.scale(0)), (v.scale(0), v), (v.scale(0), v.scale(0))):
            check(cell_pairing(a, b) == field.zero == oracles.cell_pairing(a, b), (t, n))
    b = random_blade(5, rng, 4)
    for x, y in ((b, b.scale(0)), (b.scale(0), b), (b.scale(0), b.scale(0))):
        xy = x * y
        check(xy.is_zero() and xy.n == 5 and xy == oracles.blade_product(x, y), "blade")
    p = TLElement.zero(5, level)
    check(phi(p).is_zero() and phi(p) == oracles.phi(p), "phi")


class CountedPairing(tuple):
    """A pairing label that records each hash of itself."""

    calls: list = []

    def __hash__(self):
        CountedPairing.calls.append(self)
        return tuple.__hash__(self)


def _right_operand_hashes(monkeypatch, sign):
    """x + y (sign 1) or x - y (sign -1) for 40- and 30-term elements of TL_6,
    checked against the per-key sum, and its hash calls per label of y; the
    merge must build no Diagram."""
    rng = random.Random(6)
    level = 5
    field = cyclotomic_field(level)
    basis = tl_basis(6)
    x = TLElement(6, field, {d: big_coefficient(field, rng) for d in rng.sample(basis, 40)})
    terms = {d: big_coefficient(field, rng) for d in rng.sample(basis, 30)}
    # Ten terms of y cancel terms of x.
    terms.update({d: -sign * c for d, c in list(x.terms.items())[:10]})
    # y's labels count their hashes.
    y = TLElement(6, field, {Diagram._trusted(6, 6, CountedPairing(d.pairing)): c for d, c in terms.items()})
    expected = {d: x.coefficient(d) + sign * y.coefficient(d) for d in {*x.terms, *y.terms}}
    expected = {d: c for d, c in expected.items() if c}
    monkeypatch.setattr(Diagram, "_trusted", _raise_built)
    monkeypatch.setattr(Diagram, "__post_init__", _raise_built)
    CountedPairing.calls.clear()
    result = x + y if sign > 0 else x - y
    calls = len(CountedPairing.calls)
    monkeypatch.undo()
    assert result.terms == expected and all(result.terms.values())
    assert result == (y + x if sign > 0 else -(y - x))
    return calls / len(y.labels)


def _raise_built(*args):
    raise AssertionError("a Diagram was built")


def test_sum_hashes_each_key_of_the_right_operand_at_most_twice(monkeypatch):
    assert _right_operand_hashes(monkeypatch, 1) <= 2


def test_difference_hashes_each_key_of_the_right_operand_at_most_twice(monkeypatch):
    # x - y merges y into a copy of x; -y would first build a dict of its own.
    assert _right_operand_hashes(monkeypatch, -1) <= 2


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


# The stored form (sorted labels, a positive denominator and one integer
# plane) after every operation, across the int64 bound.  Raises, not
# asserts: these tests also run under -O.


def check_stored(e) -> None:
    """The labels increase, the plane has one nonzero row per label,
    gcd(den, entries) = 1, and the plane is int64 exactly while its entries
    are below 2^62, Python integers otherwise."""
    plane = e.plane
    check(list(e.labels) == sorted(set(e.labels)), "labels out of order")
    check(e.den > 0 and plane.shape == (len(e.labels), e.field.degree), "shape")
    check(bool(plane.any(axis=1).all()), "a zero row")
    check(math.gcd(e.den, *plane.ravel().tolist()) == 1, "a common factor")
    check(plane.dtype == (np.int64 if exactnum.maxabs(plane) < 2**62 else object), plane.dtype)


def per_key(x, y, op) -> dict:
    """op on the coefficients of x and y key by key, zeros dropped."""
    out = {d: op(x.coefficient(d), y.coefficient(d)) for d in {*x.terms, *y.terms}}
    return {d: c for d, c in out.items() if c}


def test_stored_form_holds_only_labels_den_and_plane():
    check(LinComb.__slots__ == ("space", "field", "labels", "den", "plane"), LinComb.__slots__)
    rng = random.Random(3)
    field = cyclotomic_field(5)
    x, y = random_tl_element(5, 5, rng), random_tl_element(5, 5, rng)
    check(not hasattr(x, "__dict__"), "an instance dict")
    check(x.terms is not x.terms and x.terms == x.terms, "terms is kept")
    try:
        x.terms[next(iter(x.terms))] = field.one
    except TypeError:
        pass
    else:
        raise AssertionError("terms is writable")
    # Every route to one combination stores one form, so equal means equal
    # arrays and hashes.
    halves = TLElement(5, field, {d: field.from_fraction(Fraction(1, k)) for k, d in zip((2, 3, 4), x.terms)})
    check(halves.den == 12 and halves.scale(12).den == 1, halves.den)
    routes = [
        (x + y) - y, -(-x), x.scale(field.delta).scale(field.delta.inverse()),
        x.scale(2**70).scale(Fraction(1, 2**70)), halves.scale(Fraction(1, 7)).scale(7) - halves + x,
    ]
    for z in routes:
        check_stored(z)
        check(z == x and hash(z) == hash(x) and z.den == x.den and z.plane.dtype == x.plane.dtype, z)
        check(np.array_equal(z.plane, x.plane) and z.labels == x.labels, z)
    for zero in (x - x, x.scale(0), x + (-x), TLElement(5, field, {d: field.zero for d in x.terms})):
        check_stored(zero)
        check(zero.labels == () and zero.den == 1 and zero.plane.dtype == np.int64, zero.den)
        check(zero == TLElement.zero(5, 5) and hash(zero) == hash(TLElement.zero(5, 5)), "zero")
    # A cancelled term leaves no zero row behind.
    d = next(iter(y.terms))
    z = y - TLElement(5, field, {d: y.coefficient(d)})
    check_stored(z)
    check(d.pairing not in z.labels and len(z.labels) == len(y.labels) - 1, "cancelled term")


@pytest.mark.parametrize("level", (4, 5))
def test_merge_bound_of_sums_and_differences(level):
    # Stored planes on both sides of 2^62: their sum, a rescaling to a common
    # denominator past it, and cancellations that come back below it.
    field = cyclotomic_field(level)
    basis = tl_basis(4)
    top = 2**62 - 1
    at_bound = TLElement(4, field, {d: field.from_coeffs(1, [top] * field.degree) for d in basis[:3]})
    below = TLElement(4, field, {d: field.from_coeffs(1, [top - 1] * field.degree) for d in basis[1:4]})
    past = at_bound.scale(2**40)
    thirds = TLElement(4, field, {d: field.from_coeffs(3, [1] * field.degree) for d in basis[2:]})
    near = TLElement(4, field, {d: field.from_coeffs(1, [2**61] * field.degree) for d in basis[:2]})
    check(at_bound.plane.dtype == below.plane.dtype == near.plane.dtype == np.int64, "int64 operands")
    check(past.plane.dtype == object, "Python-integer operand")
    pairs = [
        (at_bound, at_bound), (at_bound, below), (below, at_bound), (at_bound, past),
        (past, at_bound), (near, thirds), (thirds, near), (past, past.scale(-1)),
        (past, at_bound.scale(2**40 - 1)), (near, near.scale(-1) + thirds),
    ]
    for x, y in pairs:
        for z, op in ((x + y, lambda a, b: a + b), (x - y, lambda a, b: a - b)):
            check_stored(z)
            check(dict(z.terms) == per_key(x, y, op), (x.plane.dtype, y.plane.dtype))
    # The sums reach each side of the bound: 2 (2^62 - 1) is past it, and
    # (x + y) - y comes back.
    check((at_bound + at_bound).plane.dtype == object, "sum past 2^62")
    check(((at_bound + at_bound) - at_bound).plane.dtype == np.int64, "difference below 2^62")
    check((near + thirds).plane.dtype == object and (near + thirds).den == 3, "rescaled past 2^62")


@pytest.mark.parametrize("level", (4, 5))
def test_merge_bound_of_scale_and_the_sums(level):
    field = cyclotomic_field(level)
    rng = random.Random(10 + level)
    basis = tl_basis(4)
    x = TLElement(4, field, {d: field.from_coeffs(1, [rng.randint(-(2**31), 2**31) for _ in range(field.degree)]) for d in basis})
    dtypes = set()
    for bits in (2, 20, 27, 28, 29, 30, 31, 40):
        c = field.from_coeffs(rng.choice((1, 3)), [rng.choice((-1, 1)) * 2**bits for _ in range(field.degree)])
        for z, oracle in ((x.scale(c), {d: v * c for d, v in x.terms.items()}), (c * x, None)):
            check_stored(z)
            check(dict(z.terms) == (oracle if oracle is not None else dict(x.scale(c).terms)), bits)
            dtypes.add(z.plane.dtype)
    check(dtypes == {np.dtype(np.int64), np.dtype(object)}, dtypes)
    # The sums: Python-integer operands whose product is small, and int64
    # operands whose product is past 2^62, against the per-term oracles.
    big = field.from_coeffs(1, [2**70] + [0] * (field.degree - 1))
    f1, f2 = generator(4, 1, level), generator(4, 2, level)
    cases = [(f1.scale(big), (f2 + f1).scale(big.inverse())), (x, x), (x.scale(2**31), x), (x, f1.scale(big))]
    for a, b in cases:
        ab = a * b
        check_stored(ab)
        check(ab == oracles.tl_product(a, b), "product")
        check(jones_trace(a) == oracles.markov_trace(a), "trace")
    check(cases[0][0].plane.dtype == object and (cases[0][0] * cases[0][1]).plane.dtype == np.int64, "back to int64")
    check((x * x.scale(2**31)).plane.dtype == object, "past 2^62")
    if level == 4:
        p = phi(cases[0][0])
        check_stored(p)
        check(p == oracles.phi(cases[0][0]), "phi")


def test_products_and_sums_build_no_cycnum_or_diagram_per_result(monkeypatch):
    # The stored form passes through: only the trace builds a CycNum, its
    # value, and no route builds a Diagram.
    rng = random.Random(9)
    level = 4
    field = cyclotomic_field(level)
    x6, y6 = (random_tl_element(6, level, rng, size=12) for _ in range(2))
    x9, y9 = (random_tl_element(9, level, rng, size=4) for _ in range(2))
    v = random_cell_vector(2, 6, level, rng)
    a, b = random_blade(6, rng, 5), random_blade(6, rng, 5)
    c = big_coefficient(field, rng)
    routes = {
        "TL_6 product": lambda: x6 * y6,
        "TL_9 product": lambda: x9 * y9,
        "sum": lambda: x6 + y6,
        "difference": lambda: x6 - y6,
        "scale": lambda: x6.scale(c),
        "cell action": lambda: cell_action(x6, v),
        "blade product": lambda: a * b,
        "phi": lambda: phi(x6),
        "trace": lambda: jones_trace(x6 * y6),
    }
    expected = {name: route() for name, route in routes.items()}  # builds the tables
    made, built = [], []
    real_make, real_trusted = CycNum._make, Diagram._trusted

    def make(*args):
        made.append(args)
        return real_make(*args)

    def trusted(cls, *args):
        built.append(args)
        return real_trusted(*args)

    monkeypatch.setattr(CycNum, "_make", staticmethod(make))
    monkeypatch.setattr(Diagram, "_trusted", classmethod(trusted))
    for name, route in routes.items():
        made.clear()
        built.clear()
        result = route()
        assert not built, name
        assert len(made) == (name == "trace"), (name, len(made))
        assert result == expected[name], name
    assert expected["trace"] == oracles.markov_trace(oracles.tl_product(x6, y6))
