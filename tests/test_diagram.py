"""Planar diagram combinatorics: enumeration, composition, rotation, hooks."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlq.combinatorics import catalan, w_dim
from tlq.diagram import (
    Diagram,
    Forest,
    compose,
    enumerate_monic,
    generator_diagram,
    hook_poly,
    identity,
    monic_pairings,
    nesting_forest,
    rotate_to_flat,
    star,
    through_strands,
    tl_basis,
)


def any_diagram(src: int, dst: int):
    options = monic_pairings(0, src + dst)
    return st.builds(
        lambda k: Diagram(src, dst, options[k]), st.integers(0, len(options) - 1)
    )


def test_enumeration_counts():
    assert len(enumerate_monic(1, 3)) == 2
    assert len(enumerate_monic(2, 4)) == 3
    assert enumerate_monic(4, 4) == (identity(4),)
    assert enumerate_monic(3, 4) == ()
    assert enumerate_monic(5, 3) == ()
    assert len(enumerate_monic(0, 0)) == 1  # the empty diagram is a morphism
    for t in range(0, 7):
        for n in range(t, 13 - t, 2):
            diagrams = enumerate_monic(t, n)
            assert len(diagrams) == w_dim(t, n)
            assert all(through_strands(d) == t for d in diagrams)


def test_catalan_counts_flat():
    for n in range(0, 9):
        assert len(monic_pairings(0, 2 * n)) == catalan(n)


def test_enumeration_is_sorted_and_canonical():
    for t, n in ((0, 6), (2, 6), (1, 5)):
        pairings = [d.pairing for d in enumerate_monic(t, n)]
        assert pairings == sorted(pairings)
        assert len(set(pairings)) == len(pairings)


def test_compose_examples():
    f1 = generator_diagram(2, 1)
    out, loops = compose(f1, f1)
    assert out == f1 and loops == 1
    # cup then cap: one closed circle, empty diagram.
    cup = Diagram(0, 2, (1, 0))
    cap = star(cup)
    out, loops = compose(cup, cap)
    assert out == Diagram(0, 0, ()) and loops == 1
    d = enumerate_monic(2, 4)[1]
    assert compose(identity(2), d) == (d, 0)
    with pytest.raises(ValueError):
        compose(cup, cup)


def test_star():
    for n in range(1, 7):
        assert star(identity(n)) == identity(n)
        for i in range(1, n):
            f = generator_diagram(n, i)
            assert star(f) == f  # cup-cap diagrams are reflection symmetric
    cap = Diagram(2, 0, (1, 0))
    assert star(cap) == Diagram(0, 2, (1, 0))
    for d in enumerate_monic(2, 6):
        assert star(star(d)) == d


def test_rotation_is_reindexing_bijection():
    assert rotate_to_flat(identity(1)) == Diagram(0, 2, (1, 0))
    flats = {rotate_to_flat(d) for d in tl_basis(2)}
    assert flats == {Diagram(0, 4, p) for p in monic_pairings(0, 4)}
    # Monic diagrams land on flats whose first t points all pair beyond t.
    for t, n in ((1, 5), (2, 4), (3, 5)):
        images = set()
        for d in enumerate_monic(t, n):
            flat = rotate_to_flat(d)
            assert all(flat.pairing[b] >= t for b in range(t))
            images.add(flat.pairing)
        assert len(images) == len(enumerate_monic(t, n))


@given(st.data())
@settings(max_examples=200, derandomize=True, deadline=None)
def test_compose_associative_and_loops_add(data):
    t = data.draw(st.sampled_from((0, 1, 2, 3)))
    m = max(t % 2, t + 2 * data.draw(st.integers(-1, 2)))
    k = max(m % 2, m + 2 * data.draw(st.integers(-1, 1)))
    n = k + 2 * data.draw(st.integers(0, 1))
    a = data.draw(any_diagram(t, m))
    b = data.draw(any_diagram(m, k))
    c = data.draw(any_diagram(k, n))
    ab, l_ab = compose(a, b)
    left, l_left = compose(ab, c)
    bc, l_bc = compose(b, c)
    right, l_right = compose(a, bc)
    assert left == right
    assert l_ab + l_left == l_bc + l_right


@given(st.data())
@settings(max_examples=200, derandomize=True, deadline=None)
def test_star_antihomomorphism(data):
    t = data.draw(st.sampled_from((0, 1, 2)))
    m = max(t % 2, t + 2 * data.draw(st.integers(-1, 2)))
    n = max(m % 2, m + 2 * data.draw(st.integers(-1, 1)))
    a = data.draw(any_diagram(t, m))
    b = data.draw(any_diagram(m, n))
    ab, loops = compose(a, b)
    sba, sloops = compose(star(b), star(a))
    assert sba == star(ab)
    assert sloops == loops


def test_through_strands():
    assert through_strands(identity(3)) == 3
    assert through_strands(generator_diagram(3, 1)) == 1
    for d in enumerate_monic(2, 6):
        assert through_strands(d) == 2


def test_nesting_forest_shapes():
    one = nesting_forest(Diagram(0, 2, (1, 0)))
    assert len(one) == 1 and one.sizes == (1,)
    nested = nesting_forest(Diagram(0, 4, (3, 2, 1, 0)))
    assert nested.sizes == (2, 1) and nested.parents == (-1, 0)
    side = nesting_forest(Diagram(0, 4, (1, 0, 3, 2)))
    assert side.sizes == (1, 1) and side.parents == (-1, -1)


def test_hook_polynomials():
    # Pairs (s, coeffs) mean q^s * sum_k coeffs[k] q^(2k); [2] = q^-1 + q.
    assert hook_poly(nesting_forest(Diagram(0, 2, (1, 0)))) == (0, [1])
    assert hook_poly(nesting_forest(Diagram(0, 4, (3, 2, 1, 0)))) == (0, [1])
    assert hook_poly(nesting_forest(Diagram(0, 4, (1, 0, 3, 2)))) == (-1, [1, 1])
    # Forest with three arcs: one root enclosing two side-by-side children has
    # hook [3]!/([1][1][3]) = [2].
    flat = Diagram(0, 6, (5, 2, 1, 4, 3, 0))
    assert hook_poly(nesting_forest(flat)) == (-1, [1, 1])


def test_hook_poly_raises_for_sizes_of_no_forest():
    # Down-set sizes that no nesting forest has leave a non-polynomial
    # quotient: [2]!/([2][2]) has fewer terms than its divisor, and
    # [3]!/([2][2][1]) leaves a remainder.
    for sizes in ((2, 2), (2, 2, 1)):
        arcs = tuple((2 * k, 2 * k + 1) for k in range(len(sizes)))
        with pytest.raises(ArithmeticError):
            hook_poly(Forest(arcs, (-1,) * len(sizes), sizes))


def test_diagram_validation():
    with pytest.raises(ValueError):
        Diagram(1, 1, (0, 1))  # fixed point
    with pytest.raises(ValueError):
        Diagram(2, 2, (2, 3, 0, 1))  # crossing
    with pytest.raises(ValueError):
        Diagram(1, 2, (1, 0, 2))  # parity
