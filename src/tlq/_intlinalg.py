"""Certified exact rank computations for integer matrices.

The exact logic is one-sided bounds that must meet:

* rank mod p is always an exact *lower* bound for the rank over Q (a nonzero
  r x r minor mod p is the image of a nonzero integer minor under the ring
  homomorphism Z -> GF(p));
* the matching *upper* bound is a column-span certificate: an exact rational
  solution X of M[:, pivot] @ X = M[:, rest], produced by p-adic (Dixon)
  lifting and then verified exactly by multi-modular congruences whose
  combined modulus exceeds a rigorous magnitude bound.

If the two bounds do not meet (an unlucky prime), the computation retries
with the next prime; it never returns an unverified answer.  All GF(p) work
goes through one Gauss-Jordan routine, :func:`_gauss_jordan`.  numpy float64
is used purely as an exact integer carrier, as in FFLAS-FFPACK: every
intermediate value is kept below 2**53 by construction, and the bounds that
depend on the input are checked with explicit raises, which ``python -O``
keeps.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

# Dot products are capped at this length so that length * (p-1)^2 < 2**53
# holds for all working primes; it is also the slice height of ModpEchelon.
_CHUNK = 512
_PRIME_LO = 1_500_000
_PRIME_HI = 2_100_000
_F64_SAFE = 1 << 53

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3 * 10**24."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes(start: int, residue: int = 0, modulus: int = 1) -> Iterator[int]:
    """Primes >= start congruent to residue mod modulus, ascending."""
    n = start + (residue - start) % modulus
    while True:
        if is_probable_prime(n):
            yield n
        n += modulus


def working_primes(order: int = 1, skip: int = 0) -> Iterator[int]:
    """Deterministic sequence of f64-safe primes; when ``order`` > 1 they are
    congruent to 1 mod order so GF(p) contains the needed roots of unity."""
    gen = primes(_PRIME_LO, 1 % max(order, 1), max(order, 1))
    for _ in range(skip):
        next(gen)
    for p in gen:
        if p > _PRIME_HI:
            raise ArithmeticError("exhausted the working prime range")
        yield p


def root_of_unity(p: int, order: int) -> int:
    """An element of GF(p) of exact multiplicative order ``order``."""
    if (p - 1) % order:
        raise ValueError("no such root exists")
    factors = _prime_factors(order)
    for a in range(2, p):
        r = pow(a, (p - 1) // order, p)
        if all(pow(r, order // f, p) != 1 for f in factors):
            return r
    raise ArithmeticError("unreachable: no primitive root found")


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# Gauss-Jordan elimination over GF(p)
# ---------------------------------------------------------------------------


def _gauss_jordan(b: np.ndarray, p: int) -> tuple[np.ndarray, list[int], list[int]]:
    """Reduced row-echelon form of ``b`` over GF(p), computed in place.

    ``b`` holds residues in [0, p) as float64.  Returns the nonzero rows of
    the reduced form, their pivot columns, and for each pivot the index of
    the row of ``b`` it was taken from.  A pivot in column c clears that
    column only in the rows that have a nonzero entry there, and only from
    column c on: the pivot row is zero before c.
    """
    cols: list[int] = []
    src: list[int] = []
    for k in np.flatnonzero(b.any(axis=1)):
        row = b[k]
        nz = np.flatnonzero(row)
        if nz.size == 0:
            continue
        c = int(nz[0])
        row[c:] = np.fmod(row[c:] * pow(int(row[c]), p - 2, p), p)
        hit = np.flatnonzero(b[:, c])
        hit = hit[hit != k]
        if hit.size:
            b[hit, c:] = np.fmod(b[hit, c:] + np.outer(p - b[hit, c], row[c:]), p)
        cols.append(c)
        src.append(int(k))
    return b[src], cols, src


class ModpEchelon:
    """Row space over GF(p), kept as one reduced row-echelon matrix.

    ``rows[:, pivot_cols]`` is the identity, so reducing a batch against the
    space takes one matrix product.  A batch enters in slices of ``_CHUNK``
    rows, which bounds the working memory of each elimination and keeps
    every dot product below 2**53.
    """

    def __init__(self, ncols: int, p: int):
        if _CHUNK * (p - 1) ** 2 >= _F64_SAFE:
            raise ValueError("prime too large for exact f64 carriers")
        self.p = p
        self.rows = np.zeros((0, ncols))
        self.pivot_cols: list[int] = []

    @property
    def rank(self) -> int:
        return len(self.pivot_cols)

    def add_rows(self, batch: np.ndarray) -> np.ndarray:
        """Insert a batch of nonnegative integer rows (below 2**53); returns
        the rows that enlarged the space, fully reduced, as a view of
        ``rows`` that the next insertion reduces in place."""
        p = self.p
        start = self.rank
        for k in range(0, len(batch), _CHUNK):
            b = np.fmod(np.asarray(batch[k : k + _CHUNK], dtype=np.float64), p)
            if self.rank:
                b -= _chunked_matmul_mod(b[:, self.pivot_cols], self.rows, p) - p
                np.fmod(b, p, out=b)
            new, cols, _ = _gauss_jordan(b, p)
            if not cols:
                continue
            if self.rank:
                self.rows -= _chunked_matmul_mod(self.rows[:, cols], new, p) - p
                np.fmod(self.rows, p, out=self.rows)
            self.rows = np.vstack([self.rows, new])
            self.pivot_cols += cols
        return self.rows[start:]


def modp_rank_with_pivots(
    m: np.ndarray, p: int
) -> tuple[int, list[int], list[int]]:
    """Rank of an integer matrix mod p plus pivot row/column indices.

    The returned r x r minor M[pivot_rows][:, pivot_cols] is nonsingular
    mod p, hence nonsingular over Q.
    """
    _, cols, src = _gauss_jordan(np.asarray(m, dtype=np.float64) % p, p)
    return len(cols), src, cols


def _modp_inverse(s: np.ndarray, p: int) -> np.ndarray:
    """Inverse of a nonsingular matrix over GF(p), as float64 residues."""
    r = s.shape[0]
    aug = np.hstack([np.asarray(s, dtype=np.float64) % p, np.eye(r)])
    rows, cols, _ = _gauss_jordan(aug, p)
    if sorted(cols) != list(range(r)):
        raise ArithmeticError("matrix is singular mod p")
    return rows[np.argsort(cols), r:]


# ---------------------------------------------------------------------------
# Dixon lifting and certified rank
# ---------------------------------------------------------------------------


def _hadamard_bits(s: np.ndarray, rhs: np.ndarray) -> int:
    """Upper bound on log2 of any minor of [S | rhs] (Cramer magnitudes)."""
    r = s.shape[0]
    bits = 0
    half_log_r = 0.5 * math.log2(r + 1) + 1
    for i in range(r):
        m = max(int(np.max(np.abs(s[i]))), int(np.max(np.abs(rhs[i]))) if rhs.size else 0, 1)
        bits += m.bit_length() + half_log_r
    return int(bits) + 2


def dixon_solve(
    s: np.ndarray, rhs: np.ndarray, p: int
) -> tuple[list[list[int]], list[int]]:
    """Solve S X = RHS exactly over Q by p-adic lifting.

    S must be nonsingular mod p.  Returns (numerators, denominators) with one
    common denominator per column: X[:, j] = num[:, j] / den[j].  The result
    is *not* self-certifying; callers must verify the product identity.
    """
    r, mcols = rhs.shape
    max_s = int(np.max(np.abs(s))) if s.size else 0
    if r * max_s * (p - 1) >= _F64_SAFE:
        raise ValueError("entries too large for lifting")
    sinv = _modp_inverse(s, p)
    sf = np.asarray(s, dtype=np.float64)
    bits = 2 * _hadamard_bits(s, rhs) + 8
    steps = max(2, int(bits / math.log2(p)) + 2)
    carry = np.asarray(rhs, dtype=np.int64).copy()
    digits: list[np.ndarray] = []
    for _ in range(steps):
        x = _chunked_matmul_mod(sinv, (carry % p).astype(np.float64), p)
        digits.append(x.astype(np.int64))
        t = sf @ x
        if t.size and np.max(np.abs(t)) >= _F64_SAFE:
            raise ArithmeticError("lifting product left the exact f64 range")
        carry -= t.astype(np.int64)
        q, rem = np.divmod(carry, p)
        if rem.any():
            raise ArithmeticError("lifting residue must divide exactly")
        carry = q
    mod = p**steps
    bound = math.isqrt(mod // 2)
    nums: list[list[int]] = []
    dens: list[int] = []
    # Horner combination per entry, then rational reconstruction per column.
    for j in range(mcols):
        col_nums: list[tuple[int, int]] = []
        for i in range(r):
            acc = 0
            for d in reversed(digits):
                acc = acc * p + int(d[i, j])
            frac = _rational_reconstruct(acc, mod, bound)
            if frac is None:
                raise ArithmeticError("rational reconstruction failed")
            col_nums.append(frac)
        den = 1
        for _, d in col_nums:
            den = den * d // math.gcd(den, d)
        nums.append([n * (den // d) for n, d in col_nums])
        dens.append(den)
    return nums, dens


def _rational_reconstruct(a: int, m: int, bound: int) -> tuple[int, int] | None:
    """Wang's rational reconstruction: n/d = a (mod m), |n|, d <= bound."""
    r0, r1 = m, a % m
    t0, t1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 == 0:
        return None
    if t1 < 0:
        t1, r1 = -t1, -r1
    if t1 > bound or math.gcd(r1, t1) != 1:
        return None
    return r1, t1


def verify_product_identity(
    a: np.ndarray,
    x_num: list[list[int]],
    x_den: list[int],
    b: np.ndarray,
) -> bool:
    """Exactly verify A @ (X_num / X_den) == B using multi-modular checks.

    The verification is rigorous: the congruences are checked modulo a set of
    primes whose product exceeds twice a magnitude bound on both sides.
    """
    w, r = a.shape
    mcols = b.shape[1]
    if r == 0:
        return not np.asarray(b).any()
    max_a = int(np.max(np.abs(a))) if a.size else 0
    max_b = int(np.max(np.abs(b))) if b.size else 0
    max_x = max((abs(v) for col in x_num for v in col), default=0)
    max_d = max(x_den, default=1)
    lhs_bits = (r * max_a * max_x).bit_length() if max_x else 1
    rhs_bits = (max_b * max_d).bit_length() if max_b else 1
    need = max(lhs_bits, rhs_bits) + 2
    have = 0
    xt = [[x_num[j][i] for j in range(mcols)] for i in range(r)]
    small = max_x < (1 << 62)
    if small:
        x_arr = np.array(xt, dtype=np.int64)
    for q in primes(_PRIME_LO):
        if small:
            xq = (x_arr % q).astype(np.float64)
        else:
            xq = np.array([[v % q for v in row] for row in xt], dtype=np.float64)
        aq = (np.asarray(a, dtype=np.int64) % q).astype(np.float64)
        bq = (np.asarray(b, dtype=np.int64) % q).astype(np.float64)
        dq = np.array([int(d) % q for d in x_den], dtype=np.float64)
        lhs = _chunked_matmul_mod(aq, xq, q)
        rhs = (bq * dq[None, :]) % q
        if not np.array_equal(lhs, rhs):
            return False
        have += q.bit_length() - 1
        if have > need:
            return True
    raise ArithmeticError("unreachable: prime supply is infinite")


def _chunked_matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """(a @ b) % p for residues in [0, p), with dot products split so that
    partial sums stay below 2**53.  np.fmod equals % on nonnegative values
    and is several times faster."""
    r = a.shape[1]
    out = np.zeros((a.shape[0], b.shape[1]))
    for k in range(0, r, _CHUNK):
        out += a[:, k : k + _CHUNK] @ b[k : k + _CHUNK]
        np.fmod(out, p, out=out)
    return out


def certified_rank(matrix: np.ndarray, attempts: int = 3) -> int:
    """Exact rank of an integer matrix, certified in both directions.

    Las Vegas: an unlucky prime can only trigger a retry, never a wrong
    answer.  Raises ``ArithmeticError`` if certification fails repeatedly.
    """
    m = np.asarray(matrix, dtype=np.int64)
    if m.size == 0:
        return 0
    if int(np.max(np.abs(m))) >= (1 << 40):
        raise ValueError("entries too large")
    for skip in range(attempts):
        p = next(working_primes(skip=skip))
        r, pr, pc = modp_rank_with_pivots(m % p, p)
        if r == min(m.shape):
            return r
        if r == 0:
            if not m.any():
                return 0
            continue
        npc = sorted(set(range(m.shape[1])) - set(pc))
        s = m[np.ix_(pr, pc)]
        rhs = m[np.ix_(pr, npc)]
        try:
            nums, dens = dixon_solve(s, rhs, p)
        except ArithmeticError:
            continue
        if verify_product_identity(m[:, pc], nums, dens, m[:, npc]):
            return r
    raise ArithmeticError("rank certification failed; matrix may be pathological")
