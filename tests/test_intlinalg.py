"""The GF(p) elimination kernel against a pure-Python mod-p rank, and its
one reduction mod p against Python integers."""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np
import pytest

from oracles import fraction_rank, modp_rank
from tlq import _intlinalg
from tlq._intlinalg import (
    _BASE,
    _CHUNK,
    _PRIME_HI,
    _PRIME_LO,
    _SLAB,
    ModpEchelon,
    _gauss_jordan,
    _mod,
    _modp_inverse,
    certified_rank,
    is_probable_prime,
    modp_rank_with_pivots,
    working_primes,
)

P = next(working_primes())
# The largest prime below the working range's end.
P_TOP = next(q for q in range(_PRIME_HI - 1, 0, -1) if is_probable_prime(q))


def low_rank(rng, rows: int, cols: int, rank: int) -> np.ndarray:
    """A random integer matrix of rank at most ``rank``."""
    return rng.integers(-4, 5, size=(rows, rank)) @ rng.integers(-4, 5, size=(rank, cols))


def test_modp_echelon_random_batches_match_oracle():
    rng = np.random.default_rng(3)
    for trial in range(30):
        cols = int(rng.integers(1, 30))
        if trial == 0:  # one batch of more than _CHUNK rows
            m = low_rank(rng, _CHUNK + 90, cols, 7) % P
            cuts = []
        else:
            m = low_rank(rng, int(rng.integers(0, 60)), cols, int(rng.integers(0, 12))) % P
            cuts = sorted(int(c) for c in rng.integers(0, len(m) + 1, size=3))
        batches = np.split(m, cuts)  # repeated cuts give empty batches
        batches.insert(int(rng.integers(0, len(batches) + 1)), np.zeros((4, cols)))
        batches.insert(0, np.zeros((0, cols)))
        ech = ModpEchelon(cols, P)
        for batch in batches:
            rank_before = ech.rank
            added = ech.add_rows(batch)
            assert len(added) == ech.rank - rank_before
            assert np.array_equal(ech.rows[:, ech.pivot_cols], np.eye(ech.rank))
        assert ech.rank == modp_rank(m.astype(np.int64).tolist(), P)
        # The stored rows span the input rows.
        both = np.vstack([m, ech.rows]).astype(np.int64)
        assert modp_rank(both.tolist(), P) == ech.rank


def test_modp_inverse_and_singular_raise():
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 20:
        r = int(rng.integers(1, 10))
        s = rng.integers(-6, 7, size=(r, r))
        if modp_rank(s.tolist(), P) < r:
            continue
        inv = _modp_inverse(s, P).astype(np.int64)
        assert np.array_equal(inv @ s % P, np.eye(r, dtype=np.int64))
        checked += 1
    singular = low_rank(rng, 6, 6, 4)
    with pytest.raises(ArithmeticError):
        _modp_inverse(singular, P)


def test_modp_rank_with_pivots_minor_is_nonsingular():
    rng = np.random.default_rng(9)
    for _ in range(30):
        m = low_rank(rng, int(rng.integers(1, 15)), int(rng.integers(1, 15)), int(rng.integers(0, 8)))
        r, pivot_rows, pivot_cols = modp_rank_with_pivots(m, P)
        assert r == modp_rank(m.tolist(), P)
        minor = m[np.ix_(pivot_rows, pivot_cols)].tolist()
        assert modp_rank(minor, P) == r
        assert r == 0 or fraction_rank(minor) == r


def test_certified_rank_rejects_large_entries():
    with pytest.raises(ValueError):
        certified_rank(np.array([[1 << 40, 1], [2, 3]], dtype=np.int64))


@pytest.mark.parametrize("p", [P, P_TOP])
def test_mod_is_exact_at_the_extremes(p):
    # The remainders next to a multiple of p are where the rounded quotient
    # x (1/p) can land one off; near 2**53 the error is largest.
    top = 2**53 // p
    xs = [0, 1, p - 1, p, 2**53 - 2, 2**53 - 1]
    xs += [k * p + d for k in (1, 2, top - 2, top - 1, top) for d in (-1, 0, 1)]
    xs = [x for x in xs if 0 <= x < 2**53]
    want = [x % p for x in xs]
    x = np.array(xs, dtype=np.float64)
    assert [int(v) for v in x] == xs
    fresh = _mod(x, p)
    assert fresh is not x and fresh.tolist() == want
    assert [int(v) for v in x] == xs
    assert _mod(x, p, out=x) is x and x.tolist() == want


@pytest.mark.parametrize("p, x, off", [
    (2093953, 8989633903814297, -1),  # a multiple of p
    (2085143, 8989707807206680, 1),  # one below a multiple of p
    (2085143, 9007199254457624, 1),
])
def test_mod_is_exact_where_the_rounded_quotient_is_off(p, x, off):
    # Primes of the working range where floor(x (1/p)) misses x // p by one,
    # in either direction; the correction after it must catch both.
    assert _PRIME_LO <= p < _PRIME_HI and is_probable_prime(p)
    assert int(np.floor(np.float64(x) * (1.0 / p))) == x // p + off
    xs = np.array([x, x + 1, x - 1], dtype=np.float64)
    want = [v % p for v in (x, x + 1, x - 1)]
    assert _mod(xs, p).tolist() == want
    assert _mod(xs, p, out=xs).tolist() == want


@pytest.mark.parametrize("p", [P, P_TOP, 2085143])
def test_mod_is_exact_in_place_across_slabs(p):
    # Rows of random carriers below 2**53, and every remainder next to the
    # top multiples of p, 2-D and 1-D, more entries than one slab holds.
    rng = np.random.default_rng(p)
    top = 2**53 // p
    near = (np.arange(top - 400, top + 1)[:, None] * p + np.array([-1, 0, 1])).ravel()
    for ints in (rng.integers(0, 2**53, size=(5, _SLAB // 3 + 7)), near[near < 2**53]):
        x = ints.astype(np.float64)
        assert np.array_equal(x.astype(np.int64), ints)
        fresh = np.empty_like(x)
        assert _mod(x, p, out=fresh) is fresh
        assert np.array_equal(fresh.astype(np.int64), ints % p)
        assert _mod(x, p, out=x) is x
        assert np.array_equal(x.astype(np.int64), ints % p)


def gauss_jordan_blocks(rng, rows: int):
    """Residue blocks of ``rows`` rows: full row rank when it fits the
    oracle, rank-deficient with zero rows, pivots only in the last rows, a
    bottom half spanned by the top half, and all zero."""
    cols = rows + 3 if rows <= 2 * _BASE + 1 else 70
    full = rng.integers(0, P, size=(rows, cols))
    deficient = low_rank(rng, rows, 50, 20) % P
    deficient[rng.random(rows) < 0.25] = 0
    late = low_rank(rng, rows, 50, 30) % P
    late[: 3 * rows // 4] = 0
    echo = rng.integers(0, P, size=(rows, 40))
    echo[rows // 2 :] = rng.integers(-3, 4, size=(rows - rows // 2, rows // 2)) @ echo[: rows // 2] % P
    return [full, deficient, late, echo, np.zeros((rows, 30), dtype=np.int64)]


@pytest.mark.parametrize("rows", [_BASE - 1, _BASE, _BASE + 1, 2 * _BASE + 1, _CHUNK + 90])
def test_gauss_jordan_halving_matches_oracle(rows, monkeypatch):
    rng = np.random.default_rng(rows)
    for m in gauss_jordan_blocks(rng, rows):
        reduced, cols, src = _gauss_jordan(m.astype(np.float64), P)
        rank = len(cols)
        assert rank == modp_rank(m.tolist(), P)
        assert np.array_equal(reduced[:, cols], np.eye(rank))
        # Every input row is its entries at the pivot columns times the rows.
        rows_int = reduced.astype(np.int64)
        assert not ((m - m[:, cols] @ rows_int) % P).any()
        assert modp_rank(m[src].tolist(), P) == rank
        assert src == sorted(set(src))
        # The same pivots, sources and rows as pivoting row by row.
        monkeypatch.setattr(_intlinalg, "_BASE", rows)
        flat, flat_cols, flat_src = _gauss_jordan(m.astype(np.float64), P)
        monkeypatch.undo()
        assert (flat_cols, flat_src) == (cols, src)
        assert np.array_equal(flat, reduced)


def test_no_module_calls_fmod():
    # Every reduction mod p in the package goes through _intlinalg._mod.
    src = Path(_intlinalg.__file__).resolve().parent
    pattern = re.compile(r"\bfmod\b")
    offenders = [path.name for path in sorted(src.rglob("*.py")) if pattern.search(path.read_text())]
    assert not offenders
    # The scan would see a call or an import of it.
    assert all(pattern.search(line) for line in ("np.fmod(b, p, out=b)", "from numpy import fmod"))
