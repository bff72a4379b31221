"""Exact linear algebra over GF(p), and the working primes.

All GF(p) work goes through one Gauss-Jordan routine, :func:`_gauss_jordan`.
The engine's one route built on it is ``ModpEchelon``, the incremental
reduced row echelon form behind the mod-p sandwich of ``tlalg`` (the ideal
generated by E and the rank of the trace form) and the dimension of the
Clifford image; ``modp_rank_with_pivots`` serves only the lifting half.
numpy float64 is used purely as an exact integer carrier, as in
FFLAS-FFPACK: every intermediate value is kept below 2**53 by construction,
and the bounds that depend on the input are checked with explicit raises,
which ``python -O`` keeps.

Every reduction mod p is one routine, :func:`_mod`: x - p floor(x (1/p))
and one correction each way, exact for every float64 integer
0 <= x < 2**53 at every prime below ``_PRIME_HI``.  ``_gauss_jordan``
eliminates by recursive halving, in the delayed-reduction, Schur-complement
scheme of FFLAS-FFPACK (Dumas, Giorgi and Pernet, ACM TOMS 35(3), 2008):
top half, one product to reduce the bottom half, bottom half, one product
to reduce the top half, and pivot by pivot only on blocks of at most
``_BASE`` rows.  The step after the top half, ``_extend``, is also how
``ModpEchelon`` takes a batch of rows.  Every product mod p goes through ``_chunked_matmul_mod``,
whose sums of at most ``_CHUNK`` terms stay below _CHUNK p**2 < 2**53.

The second half, a certified integer rank (``dixon_solve``,
``verify_product_identity``, ``certified_rank``), is called by no engine
route.  It stays only because the benchmark tracer, ``tlqbench/tracer.py``,
resolves its names.  Its exact logic is one-sided bounds that must meet:

* rank mod p is always an exact *lower* bound for the rank over Q (a nonzero
  r x r minor mod p is the image of a nonzero integer minor under the ring
  homomorphism Z -> GF(p));
* the matching *upper* bound is a column-span certificate: an exact rational
  solution X of M[:, pivot] @ X = M[:, rest], produced by p-adic (Dixon)
  lifting and then verified exactly by multi-modular congruences whose
  combined modulus exceeds a rigorous magnitude bound.

If the two bounds do not meet (an unlucky prime), the computation retries
with the next prime; it never returns an unverified answer.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

# Dot products are capped at this length so that length * p^2 < 2**53
# holds for all working primes; it is also the slice height of ModpEchelon.
_CHUNK = 512
# _gauss_jordan halves row blocks down to this height, then pivots row by row.
_BASE = 64
# Entries per pass of _mod: its temporary stays in cache.
_SLAB = 1 << 15
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


def _mod(x: np.ndarray, p: int, out: np.ndarray | None = None) -> np.ndarray:
    """x mod p for float64 integers 0 <= x < 2**53, as x - p floor(x (1/p)).

    The rounded quotient is off by at most one: one too big only where the
    remainder is p - 1, where p times it is x + 1 <= 2**53 and still exact,
    and one too small only where the remainder is 0 or 1.  So the difference
    lies in [-1, p + 1], and one correction each way makes it exact.  ``out``
    may be ``x`` itself.  The work goes in slabs of about ``_SLAB`` entries
    along the first axis, so the one temporary stays small.
    """
    if out is None:
        out = np.empty(x.shape)
    step = max(1, _SLAB * len(x) // max(x.size, 1))
    for k in range(0, len(x), step):
        xs, r = x[k : k + step], out[k : k + step]
        q = np.multiply(xs, 1.0 / p)
        np.floor(q, out=q)
        q *= -p
        np.add(xs, q, out=r)
        if r.min(initial=0) < 0:
            r[r < 0] += p
        if r.max(initial=0) >= p:
            r[r >= p] -= p
    return out


def _gauss_jordan(b: np.ndarray, p: int) -> tuple[np.ndarray, list[int], list[int]]:
    """Reduced row-echelon form of ``b`` over GF(p), using ``b`` as scratch.

    ``b`` holds residues in [0, p) as float64.  Returns the nonzero rows of
    the reduced form, their pivot columns, and for each pivot the index of
    the row of ``b`` it was taken from, in increasing row order.

    A block of more than ``_BASE`` rows is halved: the top half is
    eliminated and :func:`_extend` adds the bottom half.  A block of at most
    ``_BASE`` rows is eliminated pivot by pivot: a pivot in column c clears
    that column only in the rows that have a nonzero entry there, and only
    from column c on, since the pivot row is zero before c.
    """
    if len(b) > _BASE:
        mid = len(b) // 2
        top, cols, src = _gauss_jordan(b[:mid], p)
        rows, cols, low_src = _extend(top, cols, b[mid:], p)
        return rows, cols, src + [mid + k for k in low_src]
    cols: list[int] = []
    src: list[int] = []
    for k in np.flatnonzero(b.any(axis=1)):
        row = b[k]
        nz = np.flatnonzero(row)
        if nz.size == 0:
            continue
        c = int(nz[0])
        _mod(row[c:] * pow(int(row[c]), p - 2, p), p, out=row[c:])
        hit = np.flatnonzero(b[:, c])
        hit = hit[hit != k]
        if hit.size:
            b[hit, c:] = _mod(b[hit, c:] + np.outer(p - b[hit, c], row[c:]), p)
        cols.append(c)
        src.append(int(k))
    return b[src], cols, src


def _extend(rows: np.ndarray, cols: list[int], b: np.ndarray, p: int) -> tuple[np.ndarray, list[int], list[int]]:
    """Adds the rows of ``b`` (scratch) to the reduced rows ``rows`` (pivot
    columns ``cols``, reduced in place): one product reduces ``b`` by them,
    ``b`` is eliminated, one more product reduces them by the new pivot rows,
    and the new rows are stacked below.  Returns the rows, their pivot
    columns and the rows of ``b`` the new pivots came from."""
    if cols:
        _chunked_matmul_mod(p - b[:, cols], rows, p, out=b)
    new, new_cols, src = _gauss_jordan(b, p)
    if not new_cols:
        return rows, cols, src
    if cols:
        _chunked_matmul_mod(p - rows[:, new_cols], new, p, out=rows)
    return np.vstack([rows, new]), cols + new_cols, src


class ModpEchelon:
    """Row space over GF(p), kept as one reduced row-echelon matrix.

    ``rows[:, pivot_cols]`` is the identity, so reducing a batch against the
    space takes one matrix product.  A batch enters in slices of ``_CHUNK``
    rows, which bounds the working memory of each elimination and keeps
    every dot product below 2**53.
    """

    def __init__(self, ncols: int, p: int):
        if _CHUNK * p * p >= _F64_SAFE:
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
            b = _mod(np.asarray(batch[k : k + _CHUNK], dtype=np.float64), p)
            self.rows, self.pivot_cols, _ = _extend(self.rows, self.pivot_cols, b, p)
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
# Dixon lifting and certified rank (no engine caller; see the module docstring)
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


def _chunked_matmul_mod(
    a: np.ndarray, b: np.ndarray, p: int, out: np.ndarray | None = None
) -> np.ndarray:
    """(out + a @ b) mod p, updating ``out`` in place (zero if not given),
    for ``out`` and ``b`` residues in [0, p) and ``a`` in [0, p].  The dot
    products are split into ``_CHUNK`` terms, so every partial sum stays
    below p + _CHUNK p (p-1) <= _CHUNK p**2; ``a`` = p - residues negates a
    product."""
    if out is None:
        out = np.zeros((a.shape[0], b.shape[1]))
    for k in range(0, a.shape[1], _CHUNK):
        out += a[:, k : k + _CHUNK] @ b[k : k + _CHUNK]
        _mod(out, p, out=out)
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
