"""Exact arithmetic: the cyclotomic fields Q(zeta_{2l}), their subrings
Z[delta] (``DeltaRing``), quantum integers and exact dense linear algebra.

Every scalar used by the algebra layers is a ``CycNum``: a residue modulo the
2l-th cyclotomic polynomial with rational coefficients, stored as an integer
coefficient vector over a common denominator.  There is no floating point
anywhere in this module; approximations exist only for display purposes.
This module is the one place that knows that representation: each field
keeps one table of zeta^0 .. zeta^(2l-1), the inverse is the product of the
Galois conjugates over the (checked) rational norm, ``poly_divexact`` is
the one integer polynomial long division, ``from_q_poly`` evaluates an
integer polynomial in q^2 (times a power of q) by summing table rows, and
``mod_p_image`` is the one reduction of the field into GF(p).

Many numbers at once are integer coefficient planes over a common
denominator (``coefficient_plane``), int64 while a bound checked before the
work stays below 2^62 (``int_dtype``).  ``plane_rank`` is exact rank on
them, over Q(zeta_{2l}) or over Z[delta] (half the degree; a pivot is
inverted by its adjugate row).  ``LinComb``, the one linear-combination
type, stores its terms as one such plane: sorted basis labels, a positive
denominator and one row per label, in the canonical form of
``_canonical``, so +, -, ``scale``, == and hash are array merges here.
``weighted_sums`` is the one step for every sum of products (the ``TL_n``
product, trace and kill check, the cell action and form, the blade
product, phi): rows scatter-added per (slot, weight) and contracted once
with the weight planes.  Its three callers take stored (den, plane)
operands and index arrays: ``pair_sums`` (every product of two
combinations), ``term_sums`` (one product per term) and ``table_sums`` (the
rows of an exponent table).  Each returns only the nonzero sums, as
(results, den, plane) in increasing result order and in the stored form,
with no CycNum per result, so other modules pass planes on and never
compute with them.

All values are immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from types import MappingProxyType
from typing import Callable, Collection, Mapping, Sequence

import numpy as np

from ._intlinalg import root_of_unity

_INT64_SAFE = 2**62  # plane_rank's int64 bound


# ---------------------------------------------------------------------------
# Cyclotomic fields
# ---------------------------------------------------------------------------


def poly_divexact(num: list[int], den: list[int]) -> list[int]:
    """The quotient of integer polynomials (coefficients low to high); raises
    ``ArithmeticError`` unless it is exact with integer coefficients, and
    ``ZeroDivisionError`` if den has no nonzero top coefficient."""
    if not den or not den[-1]:
        raise ZeroDivisionError("the divisor has no nonzero top coefficient")
    num = list(num)
    dn, dd = len(num) - 1, len(den) - 1
    lead = den[dd]
    quot = [0] * (dn - dd + 1)
    for k in range(dn - dd, -1, -1):
        q, r = divmod(num[k + dd], lead)
        if r:
            raise ArithmeticError("non-exact polynomial division")
        quot[k] = q
        if q:
            for j in range(dd + 1):
                num[k + j] -= q * den[j]
    if any(num):
        raise ArithmeticError("non-exact polynomial division")
    return quot


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients (low to high) of the n-th cyclotomic polynomial."""
    if n < 1:
        raise ValueError("n must be positive")
    # x^n - 1 divided by the product of Phi_d over proper divisors d of n.
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = poly_divexact(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


def _ring_tables(modulus: Sequence[int], count: int) -> tuple[list, np.ndarray, int]:
    """Z[x] modulo a monic integer polynomial of degree d: the integer rows of
    x^0 .. x^(count-1), each the previous one times x with x^d replaced by
    x^d - modulus, and (mult, bound) with mult[i, j] = x^(i+j): a product of
    rows x, y is one contraction with it, at most max|x| max|y| bound."""
    d = len(modulus) - 1
    pows = [tuple(int(j == k) for j in range(d)) for k in range(d)]
    for _ in range(d, max(count, 2 * d - 1)):
        prev = pows[-1]
        pows.append(tuple(a - prev[-1] * m for a, m in zip((0,) + prev[:-1], modulus)))
    mult = np.array([pows[i : i + d] for i in range(d)], dtype=np.int64)
    return pows[:count], mult, int(np.abs(mult).sum(axis=(0, 1)).max())


class CyclotomicField:
    """The field Q(zeta_{2l}) for a fixed level l >= 3.

    The designated elements are q = zeta^{l+1} (so q = -exp(i*pi/l), q^2 has
    multiplicative order l) and the loop scalar delta = -(q + 1/q) =
    2 cos(pi/l) > 0.

    Use :func:`cyclotomic_field` to obtain the shared instance for a level.
    """

    def __init__(self, level: int):
        if level < 3:
            raise ValueError("level must be at least 3")
        self.level = level
        self.modulus = cyclotomic_polynomial(2 * level)
        self.degree = len(self.modulus) - 1
        d = self.degree
        pows, self._mult, self._mult_bound = _ring_tables(self.modulus, 2 * level)
        self._zeta_powers = tuple(pows)  # zeta^0 .. zeta^(2l-1)
        # x^(d+k) mod Phi for k = 0 .. d-2 (d <= l, so the table holds them),
        # kept as their nonzero (index, coefficient) entries.
        self._red = tuple(
            tuple((j, v) for j, v in enumerate(row) if v) for row in pows[d : 2 * d - 1]
        )
        # The exponents k of the automorphisms zeta -> zeta^k other than the
        # identity: the units of Z/2l.
        self._conjugates = tuple(
            k for k in range(2, 2 * level) if math.gcd(k, 2 * level) == 1
        )
        self.zero = CycNum(self, 1, (0,) * d)
        self.one = CycNum(self, 1, (1,) + (0,) * (d - 1))
        self.zeta = self.from_zeta_power(1)
        self.q = self.from_zeta_power(level + 1)
        self.q_inv = self.from_zeta_power(level - 1)
        self.delta = -(self.q + self.q_inv)

    # -- constructors -------------------------------------------------

    def from_int(self, value: int) -> CycNum:
        return CycNum(self, 1, (value,) + (0,) * (self.degree - 1))

    def from_fraction(self, value: Fraction | int) -> CycNum:
        value = Fraction(value)
        num = (value.numerator,) + (0,) * (self.degree - 1)
        return CycNum._make(self, value.denominator, list(num))

    def from_coeffs(self, den: int, num: Sequence[int]) -> CycNum:
        if len(num) != self.degree:
            raise ValueError("coefficient vector has the wrong length")
        return CycNum._make(self, den, list(num))

    def from_zeta_power(self, k: int) -> CycNum:
        return CycNum(self, 1, self._zeta_powers[k % (2 * self.level)])

    def from_q_poly(self, shift: int, coeffs: Sequence[int]) -> CycNum:
        """q^shift * sum_k coeffs[k] q^(2k), summed in integers from rows of
        the zeta-power table: q = zeta^(l+1), so q^2 = zeta^2."""
        out = [0] * self.degree
        for k, c in enumerate(coeffs):
            if c:
                row = self._zeta_powers[((self.level + 1) * shift + 2 * k) % (2 * self.level)]
                for j, v in enumerate(row):
                    out[j] += c * v
        return CycNum._make(self, 1, out)

    def _reduce(self, prod: list[int]) -> list[int]:
        """Coefficients of a polynomial of degree < 2d-1 modulo Phi_{2l}."""
        d = self.degree
        out = prod[:d]
        for c, row in zip(prod[d:], self._red):
            if c:
                for j, v in row:
                    out[j] += c * v
        return out

    def pivot_inverse(self, x: Sequence[int]) -> tuple[tuple[int, ...], int]:
        """(R, N) with x * R = N for a nonzero integer row x, by the Galois norm:
        R is the product of the conjugates sigma_k(x), sigma_k: zeta -> zeta^k
        for the units k != 1 of Z/2l, and N = x * R, checked to be an integer."""
        x, order, rest = tuple(map(int, x)), 2 * self.level, None
        for k in self._conjugates:
            # sigma_k(x) = sum of x_j zeta^(jk), in integers from the table.
            rows = [[v * z for z in self._zeta_powers[j * k % order]] for j, v in enumerate(x) if v]
            conj = CycNum(self, 1, tuple(map(sum, zip(*rows))))
            rest = conj if rest is None else rest * conj
        norm = CycNum(self, 1, x) * rest
        if norm.den != 1 or any(norm.num[1:]) or not norm.num[0]:
            raise ArithmeticError("the conjugates do not multiply to a nonzero rational norm")
        return rest.num, norm.num[0]

    def __repr__(self) -> str:
        return f"CyclotomicField(level={self.level})"


@lru_cache(maxsize=None)
def cyclotomic_field(level: int) -> CyclotomicField:
    """Shared field instance for a level (CycNums compare within a level)."""
    return CyclotomicField(level)


@lru_cache(maxsize=None)
def delta_minimal_polynomial(level: int) -> tuple[int, ...]:
    """Coefficients (low to high) of the monic minimal polynomial m of
    delta = zeta + 1/zeta = 2 cos(pi/l): Phi_{2l}(z) = z^h m(z + 1/z), with
    z^k + z^-k = sum over i of (-1)^i k/(k-i) C(k-i, i) w^(k-2i) for k >= 1."""
    phi = cyclotomic_polynomial(2 * level)
    h = (len(phi) - 1) // 2
    out = [phi[h]] + [0] * h
    for k in range(1, h + 1):
        for i in range(k // 2 + 1):
            out[k - 2 * i] += phi[h + k] * (-1) ** i * k * math.comb(k - i, i) // (k - i)
    return tuple(out)


class DeltaRing:
    """Z[delta] = Z[x]/(m), m of :func:`delta_minimal_polynomial`, degree
    h = phi(2l)/2, basis delta^0 .. delta^(h-1): it holds the loop values of
    the cell and trace forms.  :func:`delta_ring` gives the shared instance."""

    def __init__(self, level: int):
        field = cyclotomic_field(level)
        self.level, self.modulus = level, delta_minimal_polynomial(level)
        self.degree = h = len(self.modulus) - 1
        relation = sum((c * p for c, p in zip(self.modulus, powers(field.delta, h))), field.zero)
        if 2 * h != field.degree or self.modulus[-1] != 1 or relation:
            raise ArithmeticError(f"m does not kill delta in Q(zeta_{2 * level})")
        _, self._mult, self._mult_bound = _ring_tables(self.modulus, 0)

    def power_table(self, upto: int) -> np.ndarray:
        """The integer rows of delta^0 .. delta^upto, then a zero row."""
        rows = np.array(_ring_tables(self.modulus, upto + 1)[0] + [(0,) * self.degree], dtype=object)
        return rows.astype(int_dtype(maxabs(rows)))

    def pivot_inverse(self, x: Sequence[int]) -> tuple[tuple[int, ...], int]:
        """(R, N) with x * R = N for a nonzero integer row x: the first row of
        adj M and det M, M the multiplication by x (y @ M = x * y), by the
        Faddeev-LeVerrier recursion M_1 = I, c_(h-k) = -tr(M M_k) / k,
        M_(k+1) = M M_k + c_(h-k) I: adj M = (-1)^(h+1) M_h, det M = (-1)^h c_0."""
        h = self.degree
        m = _times(self, np.array([x], dtype=object))[0]
        acc, c = np.zeros_like(m), 1
        for k in range(1, h + 1):
            acc = m @ acc + c * np.eye(h, dtype=object)
            c = -(m @ acc).trace() // k
        return tuple((-1) ** (h + 1) * v for v in acc[0]), (-1) ** h * c


# The shared Z[delta] instance of a level, built on first use.
delta_ring = lru_cache(maxsize=None)(DeltaRing)


class CycNum:
    """An element of Q(zeta_{2l}): integer coefficient vector over a common
    positive denominator, reduced modulo Phi_{2l} and normalized so that
    gcd(den, coefficients) = 1.  Zero has denominator 1."""

    __slots__ = ("field", "den", "num")

    def __init__(self, field: CyclotomicField, den: int, num: tuple[int, ...]):
        self.field = field
        self.den = den
        self.num = num

    @staticmethod
    def _make(field: CyclotomicField, den: int, num: list[int]) -> CycNum:
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            den = -den
            num = [-v for v in num]
        g = math.gcd(den, *num)
        if g > 1:
            den //= g
            num = [v // g for v in num]
        if not any(num):
            return CycNum(field, 1, (0,) * len(num))
        return CycNum(field, den, tuple(num))

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def __bool__(self) -> bool:
        return any(self.num)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.field.from_fraction(other)
        if not isinstance(other, CycNum):
            return NotImplemented
        return (
            self.field.level == other.field.level
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self) -> int:
        # A rational hashes like the int or Fraction it equals.
        if any(self.num[1:]):
            return hash((self.field.level, self.den, self.num))
        return hash(self.num[0]) if self.den == 1 else hash(Fraction(self.num[0], self.den))

    # -- ring operations ------------------------------------------------

    def _coerce(self, other) -> "CycNum | None":
        if isinstance(other, CycNum):
            if other.field.level != self.field.level:
                raise ValueError("mixed cyclotomic levels")
            return other
        if isinstance(other, int):
            return self.field.from_int(other)
        if isinstance(other, Fraction):
            return self.field.from_fraction(other)
        return None

    def __add__(self, other) -> CycNum:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        da, db = self.den, other.den
        if da == db:
            return CycNum._make(
                self.field, da, [a + b for a, b in zip(self.num, other.num)]
            )
        g = math.gcd(da, db)
        fa, fb = db // g, da // g
        return CycNum._make(
            self.field,
            da // g * db,
            [a * fa + b * fb for a, b in zip(self.num, other.num)],
        )

    __radd__ = __add__

    def __neg__(self) -> CycNum:
        return CycNum(self.field, self.den, tuple(-v for v in self.num))

    def __sub__(self, other) -> CycNum:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> CycNum:
        return (-self) + other

    def __mul__(self, other) -> CycNum:
        if isinstance(other, int):
            return CycNum._make(self.field, self.den, [v * other for v in self.num])
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        field = self.field
        d = field.degree
        na, nb = self.num, other.num
        prod = [0] * (2 * d - 1)
        for i, ai in enumerate(na):
            if ai:
                for j, bj in enumerate(nb):
                    if bj:
                        prod[i + j] += ai * bj
        return CycNum._make(field, self.den * other.den, field._reduce(prod))

    __rmul__ = __mul__

    def inverse(self) -> CycNum:
        """Multiplicative inverse by the Galois norm: with A = den * self
        and A * R = N (:meth:`CyclotomicField.pivot_inverse`),
        1/self = den * R / N."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        rest, norm = self.field.pivot_inverse(self.num)
        return CycNum._make(self.field, norm, [self.den * v for v in rest])

    def __truediv__(self, other) -> CycNum:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other) -> CycNum:
        return self.inverse() * other

    def __pow__(self, exponent: int) -> CycNum:
        if exponent < 0:
            return self.inverse() ** (-exponent)
        out = self.field.one
        base = self
        e = exponent
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    # -- conversions ----------------------------------------------------

    def approx(self) -> complex:
        """Floating approximation, for display only."""
        z = cmath.exp(1j * cmath.pi / self.field.level)
        total = 0j
        for k, v in enumerate(self.num):
            if v:
                total += v * z**k
        return total / self.den

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for k, v in enumerate(self.num):
            if not v:
                continue
            if k == 0:
                parts.append(f"{v:+d}")
            elif k == 1:
                parts.append(f"{v:+d}z")
            else:
                parts.append(f"{v:+d}z^{k}")
        s = " ".join(parts)
        s = s[1:] if s.startswith("+") else s
        if self.den != 1:
            s = f"({s})/{self.den}"
        return s


@lru_cache(maxsize=None)
def powers(x: CycNum, upto: int) -> tuple[CycNum, ...]:
    """x^0, x^1, ..., x^upto: the weights of loop counts and contractions."""
    out = [x.field.one]
    for _ in range(upto):
        out.append(out[-1] * x)
    return tuple(out)


def quantum_int(m: int, x: CycNum) -> CycNum:
    """The quantum integer [m]_x = x^{m-1} + x^{m-3} + ... + x^{-(m-1)} at a
    field element x, which is inverted once.  [0] = 0.
    """
    if m < 0:
        raise ValueError("quantum integers are defined for m >= 0")
    if m == 0:
        return x.field.zero
    return sum(powers(x * x, m - 1), x.field.zero) * x.inverse() ** (m - 1)


# ---------------------------------------------------------------------------
# Reduction modulo a prime
# ---------------------------------------------------------------------------


def mod_p_image(level: int, p: int) -> Callable:
    """The reduction of Q(zeta_{2l}) into GF(p) for a prime p = 1 mod 2l.

    It sends zeta to a fixed primitive 2l-th root of unity mod p, so it is a
    ring homomorphism on the numbers whose denominator is prime to p; the
    returned map raises ``ArithmeticError`` when a denominator vanishes.  It
    takes a CycNum to its residue, and a ``LinComb`` to the int64 residues
    of its coefficients in label order, its plane reduced in one step.
    """
    degree = cyclotomic_field(level).degree
    z = root_of_unity(p, 2 * level)
    zpows = [pow(z, k, p) for k in range(degree)]

    def image(c: CycNum | LinComb):
        if c.field.level != level:
            raise ValueError("mixed cyclotomic levels")
        if c.den % p == 0:
            raise ArithmeticError("denominator vanishes mod p")
        if isinstance(c, LinComb):
            # Residues and powers below 2^21, so every dot product fits int64.
            return (c.plane % p).astype(np.int64) @ zpows % p * pow(c.den, -1, p) % p
        total = sum(v * zk for v, zk in zip(c.num, zpows) if v)
        return total * pow(c.den, -1, p) % p

    return image


# ---------------------------------------------------------------------------
# Exact sums of products on integer coefficient planes
# ---------------------------------------------------------------------------

# Pairs multiplied at once by pair_sums: a block is one (pairs, degree) plane.
_PAIR_BLOCK = 4096


def rows_per_block(width: int) -> int:
    """Rows of ``width`` entries that make one block of about _PAIR_BLOCK."""
    return max(1, _PAIR_BLOCK // max(1, width))


def sums_dtype(weights: tuple[int, np.ndarray, int], bound: int):
    """The integer type of :func:`weighted_sums` on ``weights`` when
    ``bound`` bounds every accumulated coefficient, checked before any work:
    int64 while the contracted sums stay below 2^62 (the last plane is
    zero), Python integers otherwise."""
    _, planes, top = weights
    return int_dtype(bound * top * (len(planes) - 1) * planes.shape[-1])


def weighted_sums(field: CyclotomicField, results, den: int, weights, dtype, blocks) -> tuple:
    """The one exact product-sum step: for the entries (s, l, v) of
    ``blocks``, integer coefficient rows v over ``den``, the sum over s of
    v * w_l for each result of ``results`` (slot s is its position), with
    the ``weights`` of :func:`weight_planes`, as (results, den, plane) for
    the nonzero sums only, in the stored form of :func:`_canonical`.

    A block is arrays (slot, l, values), values of the shape of slot and l
    broadcast together, plus (degree,).  Each v is scatter-added to the
    accumulator row of (s, l), and the accumulator is contracted once with
    the planes.  Slot -1 (the drop slot) or weight index -1 (the zero
    weight), not both, drops an entry: its flat index lands in a spare last
    slot, or on the zero weight of the slot before."""
    planes, d, nslots = weights[1], field.degree, len(results)
    width = len(planes)
    # acc[(s * width + l) * d + k] is coefficient k of the sum for (s, l).
    acc = np.zeros((nslots + 1) * width * d, dtype=dtype)
    for slot, loops, values in blocks:
        flat = (slot * width + loops).reshape(-1, 1) * d + np.arange(d)
        np.add.at(acc, flat.ravel(), values.ravel())
    sums = (acc.reshape(nslots + 1, width * d) @ planes.reshape(width * d, d))[:nslots]
    return _canonical(results, den * weights[0], sums)


def _numbered(target: np.ndarray) -> tuple[list[int], np.ndarray]:
    """The results that ``target`` hits (integers, -1 for none), in
    increasing order, and the slot of every result index; -1 reads the
    last entry, the drop slot."""
    hit = np.zeros(int(target.max(initial=-1)) + 2, dtype=bool)
    hit[target] = True
    slot = hit.cumsum() - 1
    slot[-1] = -1
    return hit[:-1].nonzero()[0].tolist(), slot


def label_slots(labels: Sequence) -> tuple[list, list[int]]:
    """The distinct ``labels`` in increasing order and the position of each
    label among them: result numbers that keep a combination's labels sorted."""
    distinct = sorted(set(labels))
    return distinct, [bisect_left(distinct, label) for label in labels]


def pair_sums(field: CyclotomicField, x, y, target, index, weights: tuple) -> tuple:
    """The nonzero sums of x_i * y_j * weights[index[i, j]] over the pairs
    (i, j) of rows of the operands x, y, each (den, plane) as a ``LinComb``
    stores it, one per result target[i, j] (-1 drops the pair), as
    (results, den, plane) in increasing result order; target and index are
    integers of shape (rows of x, rows of y), as arrays or flat.  Weights
    past the largest index are left out; the products are formed one block
    of rows at a time."""
    (dx, a), (dy, b) = x, y
    if not len(a) or not len(b):
        return _canonical((), 1, a[:0])
    shape = len(a), len(b)
    target, index = np.asarray(target).reshape(shape), np.asarray(index).reshape(shape)
    results, slot = _numbered(target)
    planes = weight_planes(weights[: int(index.max()) + 1])
    # Each accumulated coefficient sums at most one product per pair.
    dtype = sums_dtype(planes, maxabs(a) * maxabs(b) * field._mult_bound * len(a) * len(b))
    a, b = a.astype(dtype, copy=False), b.astype(dtype, copy=False)
    step = rows_per_block(len(b))
    blocks = (slice(i, i + step) for i in range(0, len(a), step))
    products = ((slot[target[r]], index[r], plane_products(field, a[r], b)) for r in blocks)
    return weighted_sums(field, results, dx * dy, planes, dtype, products)


def term_sums(field: CyclotomicField, x, ys, target) -> tuple:
    """The nonzero sums of x_i * y over the rows y of ys[i], one (den, plane)
    operand per row of the operand x, one result target[k] per row k of the
    ys in order, as (results, den, plane) in increasing result order: each y
    times its x in one row-wise product, with the weight one."""
    (dx, a), target = x, np.asarray(target, dtype=np.intp)
    if not target.size:
        return _canonical((), 1, a[:0])
    results, slot = _numbered(target)
    dy, planes = _common(ys)
    row = np.repeat(np.arange(len(planes)), [len(p) for p in planes])
    b = np.concatenate(planes)
    weights = weight_planes((field.one,))
    dtype = sums_dtype(weights, maxabs(a) * maxabs(b) * field._mult_bound * len(b))
    a, b = a[row].astype(dtype, copy=False), b.astype(dtype, copy=False)
    values = (b[:, None, :] @ _times(field, a))[:, 0]
    return weighted_sums(field, results, dx * dy, weights, dtype, [(slot[target], 0 * target, values)])


def table_sums(field: CyclotomicField, table: np.ndarray, x, weights: tuple) -> tuple:
    """The nonzero sums over s of x_s * weights[table[j, s]] for the rows j
    of an exponent table (-1 reads the zero weight) and the rows x_s of the
    (den, plane) operand x, as (results, den, plane) in increasing j, one
    block of table rows at a time."""
    den, plane = x
    planes = weight_planes(weights)
    dtype = sums_dtype(planes, maxabs(plane) * table.shape[1])
    step, rows = rows_per_block(table.shape[1]), np.arange(len(table))[:, None]
    blocks = (slice(i, i + step) for i in range(0, len(table), step))
    entries = ((rows[r], table[r], plane[None].repeat(len(table[r]), axis=0)) for r in blocks)
    return weighted_sums(field, range(len(table)), den, planes, dtype, entries)


def sum_value(field: CyclotomicField, sums: tuple) -> CycNum:
    """The CycNum of the one result of ``sums``, zero when it vanished."""
    results, den, plane = sums
    return field.from_coeffs(den, plane[0].tolist()) if len(results) else field.zero


# ---------------------------------------------------------------------------
# Linear combinations
# ---------------------------------------------------------------------------


class LinComb:
    """A finite linear combination over ``field`` of the basis of ``space``
    (the strand count n, or (t, n) for a cell module), stored as sorted
    ``labels``, a denominator ``den`` and an integer ``plane``, one row per
    label (:func:`_canonical`).  A subclass checks a basis key and gives its
    label in ``_label``, its key in ``_key``, and defines its product.
    Combining two elements raises ``ValueError`` unless they agree in class,
    space and level."""

    __slots__ = ("space", "field", "labels", "den", "plane")

    def __init__(self, space, field: CyclotomicField, terms: Mapping | None = None):
        self.space, self.field = space, field
        pairs = []
        for key, c in (terms or {}).items():
            label = self._label(key)
            if c.field.level != field.level:
                raise ValueError(f"a level-{c.field.level} coefficient at level {field.level}")
            if c:
                pairs.append((label, c))
        pairs.sort(key=lambda pair: pair[0])
        self.labels = tuple(label for label, _ in pairs)
        self.den, self.plane = coefficient_plane(field, [c for _, c in pairs])

    def _label(self, key):
        raise NotImplementedError

    def _key(self, label):
        return label

    def _kind(self) -> tuple:
        """What two combinations must share: (class, space, level)."""
        return type(self).__name__, self.space, self.field.level

    def _check_compatible(self, other: LinComb) -> None:
        if other._kind() != self._kind():
            raise ValueError(f"cannot combine {self._kind()} with {other._kind()}")

    def _like(self, labels: Sequence, den: int, plane: np.ndarray, space=None):
        """A combination like this one (in ``space``) from a stored form."""
        out = object.__new__(type(self))
        out.space, out.field = self.space if space is None else space, self.field
        out.labels, out.den, out.plane = tuple(labels), den, plane
        return out

    def _relabelled(self, space, relabel: Callable):
        """This combination in ``space``, each label moved by ``relabel``, one to one."""
        labels = [relabel(label) for label in self.labels]
        order = sorted(range(len(labels)), key=labels.__getitem__)
        return self._like([labels[k] for k in order], self.den, self.plane[order], space)

    @property
    def terms(self) -> Mapping:
        """A read-only basis key -> CycNum mapping in label order, built afresh."""
        rows = zip(self.labels, self.plane.tolist())
        return MappingProxyType({self._key(label): self.field.from_coeffs(self.den, row) for label, row in rows})

    def coefficient(self, key) -> CycNum:
        label = self._label(key)
        k = bisect_left(self.labels, label)
        if k < len(self.labels) and self.labels[k] == label:
            return self.field.from_coeffs(self.den, self.plane[k].tolist())
        return self.field.zero

    def is_zero(self) -> bool:
        return not self.labels

    def __bool__(self) -> bool:
        return bool(self.labels)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinComb):
            return NotImplemented
        same = (other._kind(), other.labels, other.den) == (self._kind(), self.labels, self.den)
        return same and np.array_equal(other.plane, self.plane)

    def __hash__(self) -> int:
        return hash((self._kind(), self.labels, self.den, tuple(self.plane.ravel().tolist())))

    def __add__(self, other: LinComb, sign: int = 1):
        if not isinstance(other, LinComb):
            return NotImplemented
        self._check_compatible(other)
        # Each label of other is hashed once, into the union.
        labels = sorted(set(self.labels).union(other.labels))
        den, (a, b) = _common(((self.den, self.plane), (other.den, other.plane)))
        # Entries of a and b are below 2^62 when int64, so their sums fit.
        plane = np.zeros((len(labels), self.field.degree), dtype=np.result_type(a, b))
        plane[[bisect_left(labels, label) for label in self.labels]] = a
        plane[[bisect_left(labels, label) for label in other.labels]] += sign * b
        return self._like(*_canonical(labels, den, plane))

    def __neg__(self):
        return self._like(self.labels, self.den, -self.plane)

    def __sub__(self, other: LinComb):
        # One merge, as for a sum.
        return self.__add__(other, -1)

    def scale(self, scalar: int | Fraction | CycNum):
        c = self.field.zero._coerce(scalar)
        if c is None:
            raise TypeError(f"cannot scale by {type(scalar).__name__}")
        num = np.array(c.num, dtype=object)
        dtype = int_dtype(maxabs(self.plane) * maxabs(num) * self.field._mult_bound)
        plane = self.plane.astype(dtype, copy=False) @ _times(self.field, num[None].astype(dtype))[0]
        return self._like(*_canonical(self.labels, self.den * c.den, plane))

    def __rmul__(self, scalar):
        if isinstance(scalar, (int, Fraction, CycNum)):
            return self.scale(scalar)
        return NotImplemented


# ---------------------------------------------------------------------------
# Exact dense matrices and rank
# ---------------------------------------------------------------------------


class ExactMatrix:
    """A dense matrix over a cyclotomic field with exact rank computations."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field: CyclotomicField, rows: Sequence[Sequence[CycNum]]):
        self.field = field
        self.rows = [list(r) for r in rows]
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        for r in self.rows:
            if len(r) != self.ncols:
                raise ValueError("ragged rows")

    @classmethod
    def zeros(cls, field: CyclotomicField, nrows: int, ncols: int) -> ExactMatrix:
        return cls(field, [[field.zero] * ncols for _ in range(nrows)])

    def transpose(self) -> ExactMatrix:
        return ExactMatrix(
            self.field, [[self.rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)]
        )

    def rank(self) -> int:
        """Exact rank by :func:`plane_rank`, each row over its own denominator."""
        planes = [coefficient_plane(self.field, r)[1] for r in self.rows]
        return plane_rank(self.field, np.stack(planes)) if planes else 0

    def __repr__(self) -> str:
        return f"ExactMatrix({self.nrows}x{self.ncols}, level={self.field.level})"


def maxabs(x: np.ndarray) -> int:
    """The largest absolute coefficient, at least 1 (so a bound keeps both factors)."""
    return int(np.abs(x).max(initial=1))


def int_dtype(bound: int):
    """int64 while ``bound``, checked before the work it bounds, is below
    2^62; Python integers (object) from there on."""
    return np.int64 if bound < _INT64_SAFE else object


def coefficient_plane(field: CyclotomicField, values: Collection[CycNum]) -> tuple[int, np.ndarray]:
    """The least common denominator of ``values`` and their numerators over
    it as an integer plane of shape (len(values), degree), int64 while every
    entry is below 2^62.  As each CycNum is normalized, the plane of nonzero
    values is in the stored form of :func:`_canonical`."""
    den = math.lcm(*(c.den for c in values))
    nums = [c.num if c.den == den else [v * (den // c.den) for v in c.num] for c in values]
    top = max(map(abs, chain.from_iterable(nums)), default=1)
    return den, np.array(nums, dtype=int_dtype(top)).reshape(len(nums), field.degree)


def _common(operands: Sequence[tuple[int, np.ndarray]]) -> tuple[int, list[np.ndarray]]:
    """The least common denominator of (den, plane) operands and each plane
    over it: a stored plane as it is, a rescaled one int64 while every entry
    stays below 2^62."""
    den = math.lcm(*(d for d, _ in operands))
    if any(d != den for d, _ in operands):
        dtype = int_dtype(max(maxabs(p) * (den // d) for d, p in operands))
        operands = [(d, p.astype(dtype, copy=False) * (den // d)) for d, p in operands]
    return den, [p for _, p in operands]


def _canonical(labels: Sequence, den: int, plane: np.ndarray) -> tuple[tuple, int, np.ndarray]:
    """The stored form of the terms plane[k] / den at labels[k]: the zero
    rows dropped, gcd(den, entries) = 1 (so den = 1 with no rows), and the
    plane int64 while its entries stay below 2^62, Python integers from
    there on.  Equal combinations have equal stored forms."""
    keep = plane.any(axis=1)
    if not keep.all():
        labels, plane = [label for label, k in zip(labels, keep.tolist()) if k], plane[keep]
    # With no rows g = den; otherwise g divides a nonzero entry of the plane.
    g = math.gcd(den, int(np.gcd.reduce(plane.ravel()))) if den > 1 else 1
    if g > 1:
        den, plane = den // g, plane // g if len(plane) else plane
    return tuple(labels), den, plane.astype(int_dtype(maxabs(plane)), copy=False)


def plane_products(field: CyclotomicField, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """out[i, j] = x[i] * y[j] for coefficient rows x (k, d) and y (c, d)."""
    return y @ _times(field, x)


def _times(field: CyclotomicField, x: np.ndarray) -> np.ndarray:
    """out[i] = the (d, d) matrix of multiplication by x[i]: y @ out[i] = x[i] * y."""
    d = field.degree
    return (x @ field._mult.reshape(d, d * d)).reshape(len(x), d, d)


@lru_cache(maxsize=None)
def weight_planes(weights: tuple[CycNum, ...]) -> tuple[int, np.ndarray, int]:
    """The common denominator of ``weights``, integer planes out[l, j] =
    zeta^j * w_l over it and their largest absolute entry: the weights of
    :func:`weighted_sums`, the numerators of ``weights`` and then zero."""
    field = weights[0].field
    den, rows = coefficient_plane(field, weights)
    rows = np.concatenate((rows, np.zeros((1, field.degree), dtype=object)))
    out = plane_products(field, rows, np.eye(field.degree, dtype=object))
    out = out.astype(int_dtype(maxabs(out)))
    out.setflags(write=False)
    return den, out, maxabs(out)


def plane_rank(field: CyclotomicField | DeltaRing, planes: np.ndarray) -> int:
    """Exact rank of integer coefficient planes over Q(zeta_{2l}) or Z[delta]
    (entry (i, j) over row i's own denominator, which does not change it).

    Fraction-free elimination (E. H. Bareiss, Math. Comp. 22, 1968): with
    pivot * R = N a nonzero integer (``field.pivot_inverse``, checked), a
    row with entry e in the pivot column becomes N * row - (e * R) * pivrow
    over its content; the nonzero mask is rescanned on those rows only.
    int64 while a bound on the update is below 2^62, Python integers from
    the first update where it is not."""
    a, rank = planes, 0
    nz = (a != 0).any(axis=2)
    while a.size:
        cols = np.flatnonzero(nz.any(axis=0))
        if not cols.size:
            break
        col, hit = cols[0], nz[:, cols[0]]
        piv, *others = np.flatnonzero(hit)
        rank += 1
        new = a[:0, col + 1 :]
        if others:
            r, norm = field.pivot_inverse(a[piv, col])
            # The pivot's own product comes first and must be N: x * R = N != 0.
            e = plane_products(field, a[[piv, *others], col].astype(object), np.array([r], dtype=object))[:, 0]
            if not norm or e[0].tolist() != [norm] + [0] * (field.degree - 1):
                raise ArithmeticError("the pivot inverse does not give a nonzero integer")
            e, bound = e[1:], abs(norm) * maxabs(a[others, col + 1 :])
            if bound + maxabs(e) * maxabs(a[piv, col + 1 :]) * field._mult_bound >= _INT64_SAFE:
                a = a.astype(object)
            new = norm * a[others, col + 1 :]
            new -= plane_products(field, e.astype(a.dtype), a[piv, col + 1 :])
            g = np.gcd.reduce(new.reshape(len(new), -1), axis=1)
            new = new[g != 0] // g[g != 0, None, None]
        a = np.concatenate((a[~hit, col + 1 :], new))
        nz = np.concatenate((nz[~hit, col + 1 :], (new != 0).any(axis=2)))
    return rank


def rank_by_columns(matrix: ExactMatrix) -> int:
    """A second, independently coded exact rank: column-major elimination on
    the transpose with last-nonzero pivot choice.  Used as a cross-check."""
    cols = [
        [matrix.rows[i][j] for i in range(matrix.nrows)] for j in range(matrix.ncols)
    ]
    rank = 0
    ncols = len(cols)
    nrows = matrix.nrows
    for pos in range(nrows - 1, -1, -1):
        piv = None
        for k in range(len(cols) - 1, rank - 1, -1):
            if cols[k][pos]:
                piv = k
                break
        if piv is None:
            continue
        cols[rank], cols[piv] = cols[piv], cols[rank]
        pivcol = cols[rank]
        inv = pivcol[pos].inverse()
        for k in range(rank + 1, ncols):
            entry = cols[k][pos]
            if entry:
                factor = entry * inv
                colk = cols[k]
                for i in range(pos + 1):
                    if pivcol[i]:
                        colk[i] = colk[i] - factor * pivcol[i]
        rank += 1
        if rank == ncols:
            break
    return rank
