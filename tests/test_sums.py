"""The contract of the exact sums: ``pair_sums``, ``term_sums`` and
``table_sums`` take (den, plane) operands, in the form a ``LinComb`` stores
its coefficients, and index arrays (or an exponent table), and return only
the nonzero sums as (results, den, plane): the results in increasing order
and their sums in the stored form (no zero row, gcd(den, entries) = 1,
int64 exactly while the entries are below 2^62), each checked here against
its per-term oracle; and no module but ``exactnum`` names the plane
arithmetic behind them."""

from __future__ import annotations

import math
import random
import re
from pathlib import Path

import numpy as np
import pytest

import oracles
from tlq import exactnum
from tlq.exactnum import coefficient_plane, cyclotomic_field, pair_sums, powers, table_sums, term_sums

LEVELS = (3, 4, 5, 7)
PLANE_NAMES = (
    "coefficient_plane", "plane_products", "weight_planes", "sums_dtype",
    "weighted_sums", "int_dtype", "maxabs", "_canonical", "_common",
)


def coefficient(field, rng: random.Random):
    """A nonzero coefficient with large numerators and a mixed denominator."""
    return field.from_coeffs(
        rng.choice((1, 2, 35, 2**61 - 1)),
        [rng.choice((-1, 1)) * rng.getrandbits(70) + 1 for _ in range(field.degree)],
    )


def operand(field, values):
    """The (den, plane) operand of a list of CycNums, zeros kept as zero rows."""
    return coefficient_plane(field, values)


def stored_pairs(field, sums) -> list:
    """The (result, CycNum) pairs of a sum's (results, den, plane), after
    checking that the results increase and the plane is in the stored form."""
    results, den, plane = sums
    results = list(results)
    assert results == sorted(set(results)) and plane.shape == (len(results), field.degree)
    assert den > 0 and plane.any(axis=1).all()
    assert math.gcd(den, *plane.ravel().tolist()) == 1
    assert (plane.dtype == np.int64) == (exactnum.maxabs(plane) < 2**62)
    return [(k, field.from_coeffs(den, row)) for k, row in zip(results, plane.tolist())]


def check_sums(field, got, want) -> None:
    got = stored_pairs(field, got)
    assert got == want
    assert all(c for _, c in got)


def term_operands(field, xs, ys, row, target):
    """term_sums' operands for ys[k] times xs[row[k]] at target[k]: the ys
    grouped by their row, one operand per x, and the targets in that order."""
    order = sorted(range(len(ys)), key=row.__getitem__)
    per_row = [operand(field, [ys[k] for k in order if row[k] == i]) for i in range(len(xs))]
    return operand(field, xs), per_row, [target[k] for k in order]


def test_only_exactnum_names_the_plane_arithmetic():
    src = Path(exactnum.__file__).resolve().parent
    pattern = re.compile(r"\b(" + "|".join(PLANE_NAMES) + r")\b")
    offenders = {
        path.name: sorted(set(pattern.findall(path.read_text())))
        for path in sorted(src.glob("*.py"))
        if path.name != "exactnum.py"
    }
    assert not {name: found for name, found in offenders.items() if found}
    # The scan would see an import of any of them.
    assert all(pattern.search(f"from .exactnum import {name}") for name in PLANE_NAMES)


@pytest.mark.parametrize("level", LEVELS)
def test_pair_sums_contract(level):
    rng = random.Random(level)
    field = cyclotomic_field(level)
    weights = powers(field.delta, 3)
    # Every sum cancels: x_1 = -delta x_0, so x_0 y_j delta + x_1 y_j = 0.
    x = coefficient(field, rng)
    xs, ys = [x, -field.delta * x], [coefficient(field, rng) for _ in range(3)]
    target, index = [[2, 0, 5], [2, 0, 5]], [[1, 1, 1], [0, 0, 0]]
    got = pair_sums(field, operand(field, xs), operand(field, ys), target, index, weights)
    assert stored_pairs(field, got) == [] and got[1] == 1
    assert oracles.pair_sums(field, xs, ys, target, index, weights) == []
    # An empty operand.
    for a, b in ((xs, []), ([], ys), ([], [])):
        got = pair_sums(field, operand(field, a), operand(field, b), np.zeros((len(a), len(b)), dtype=int), 0, weights)
        assert stored_pairs(field, got) == []
    # Results hit out of order, one of them cancelling and some pairs
    # dropped: sorted, nonzero only.
    xs = [coefficient(field, rng) for _ in range(4)]
    ys = [coefficient(field, rng) for _ in range(5)]
    target = [[rng.choice((-1, 0, 3, 9, 4)) for _ in ys] for _ in xs]
    index = [[rng.randrange(4) for _ in ys] for _ in xs]
    # Result 6 takes x_0 y_0 + x_1 y_0 + (-x_0 - x_1) y_0 = 0.
    xs.append(-xs[0] - xs[1])
    target[0][0] = target[1][0] = 6
    index[0][0] = index[1][0] = 2
    target.append([6] + [-1] * 4)
    index.append([2] * 5)
    got = pair_sums(field, operand(field, xs), operand(field, ys), target, index, weights)
    check_sums(field, got, oracles.pair_sums(field, xs, ys, target, index, weights))
    assert 6 not in got[0] and len(got[0]) >= 2


@pytest.mark.parametrize("level", LEVELS)
def test_term_sums_contract(level):
    rng = random.Random(10 + level)
    field = cyclotomic_field(level)
    x, y = coefficient(field, rng), coefficient(field, rng)
    # Every sum cancels.
    xs, ys, row, target = [x, x], [y, -y, y, -y], [0, 1, 1, 0], [3, 3, 0, 0]
    assert stored_pairs(field, term_sums(field, *term_operands(field, xs, ys, row, target))) == []
    assert oracles.term_sums(field, xs, ys, row, target) == []
    # An empty operand: no terms.
    assert stored_pairs(field, term_sums(field, *term_operands(field, xs, [], [], []))) == []
    # Results hit out of order, result 7 cancelling.
    xs = [coefficient(field, rng) for _ in range(3)]
    ys = [coefficient(field, rng) for _ in range(6)] + [-y, y]
    row = [rng.randrange(3) for _ in range(6)] + [1, 1]
    target = [12, 2, 12, 5, 0, 2, 7, 7]
    got = term_sums(field, *term_operands(field, xs, ys, row, target))
    check_sums(field, got, oracles.term_sums(field, xs, ys, row, target))
    assert list(got[0]) == [0, 2, 5, 12]


@pytest.mark.parametrize("level", LEVELS)
def test_table_sums_contract(level):
    rng = random.Random(20 + level)
    field = cyclotomic_field(level)
    weights = powers(field.delta, 4)
    x = coefficient(field, rng)
    # Every sum cancels: equal exponents under x and -x, or -1 under both.
    table = np.array([[1, 1, 3], [4, 4, -1], [-1, -1, 0]])
    xs = [x, -x, field.zero]
    assert stored_pairs(field, table_sums(field, table, operand(field, xs), weights)) == []
    assert oracles.table_sums(field, table.tolist(), xs, weights) == []
    # An empty operand: no columns, and no rows.
    assert stored_pairs(field, table_sums(field, np.zeros((3, 0), dtype=int), operand(field, []), weights)) == []
    assert stored_pairs(field, table_sums(field, np.zeros((0, 2), dtype=int), operand(field, [x, x]), weights)) == []
    # Rows over more than one block of the step, every third cancelling.
    xs = [x, -x, coefficient(field, rng)]
    rows = exactnum.rows_per_block(len(xs)) + 40
    table = np.array([[e, e, rng.choice((-1, e))] for e in (rng.randrange(-1, 5) for _ in range(rows))])
    table[::3, 2] = -1
    got = table_sums(field, table, operand(field, xs), weights)
    check_sums(field, got, oracles.table_sums(field, table.tolist(), xs, weights))
    assert not set(got[0]) & set(range(0, rows, 3)) and got[0][-1] >= rows - 40
