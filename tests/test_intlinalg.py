"""The GF(p) elimination kernel against a pure-Python mod-p rank."""

from __future__ import annotations

import numpy as np
import pytest

from oracles import fraction_rank, modp_rank
from tlq._intlinalg import (
    _CHUNK,
    ModpEchelon,
    _modp_inverse,
    certified_rank,
    modp_rank_with_pivots,
    working_primes,
)

P = next(working_primes())


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
