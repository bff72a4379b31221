"""Exact arithmetic: the cyclotomic fields Q(zeta_{2l}), quantum integers
and exact dense linear algebra.

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
Long sums of products run on ``KroneckerPacking``: each coefficient vector
is packed into one integer, so one integer multiply-add does a whole
polynomial product and sum.

``LinComb`` is the one linear-combination type (elements of TL_n, cell
vectors, Clifford blades): it owns sums, scalar multiples and comparisons,
and ``packed_products`` is the one packed product loop over pairs of terms,
each pair's result key and weight index supplied by the caller.
Exact rank (``plane_rank``) eliminates on integer coefficient planes: int64
while a bound checked before each update stays below 2^62, Python integers after
(``int_dtype`` is that rule).  ``coefficient_plane`` turns CycNums into one
plane over a common denominator, ``plane_products`` multiplies rows pairwise,
and ``power_planes`` multiplies by x^0 .. x^L, so that a sum weighted by
powers of x is one contraction.

All values are immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from typing import Callable, Collection, Hashable, Iterable, Mapping, Sequence

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
        # zeta^k for k = 0 .. 2l-1 as integer coefficient rows: each row is
        # the previous one times x, with x^d replaced by x^d - Phi_{2l}.
        pows = [tuple(int(j == k) for j in range(d)) for k in range(d)]
        for _ in range(d, 2 * level):
            prev = pows[-1]
            pows.append(tuple(a - prev[-1] * m for a, m in zip((0,) + prev[:-1], self.modulus)))
        self._zeta_powers = tuple(pows)
        # _mult[i, j] = zeta^(i+j); a product of coefficient rows x, y is one
        # contraction with it, each value at most max|x| max|y| _mult_bound.
        self._mult = np.array([pows[i : i + d] for i in range(d)], dtype=np.int64)
        self._mult_bound = int(np.abs(self._mult).sum(axis=(0, 1)).max())
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

    def __repr__(self) -> str:
        return f"CyclotomicField(level={self.level})"


@lru_cache(maxsize=None)
def cyclotomic_field(level: int) -> CyclotomicField:
    """Shared field instance for a level (CycNums compare within a level)."""
    return CyclotomicField(level)


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
        return hash((self.field.level, self.den, self.num))

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
        """Multiplicative inverse by the Galois norm.

        With A = den * self (integer coefficients) and R the product of the
        conjugates sigma_k(A), sigma_k: zeta -> zeta^k for the units k != 1
        of Z/2l, the norm N = A * R is a nonzero integer and
        1/self = den * R / N.
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        field = self.field
        pows, order = field._zeta_powers, 2 * field.level
        rest = None
        for k in field._conjugates:
            # sigma_k(A) = sum of a_j zeta^(jk), in integers from the table.
            rows = [[v * z for z in pows[j * k % order]] for j, v in enumerate(self.num) if v]
            conj = CycNum(field, 1, tuple(map(sum, zip(*rows))))
            rest = conj if rest is None else rest * conj
        norm = CycNum(field, 1, self.num) * rest
        if norm.den != 1 or any(norm.num[1:]) or not norm.num[0]:
            raise ArithmeticError("the conjugates do not multiply to a nonzero rational norm")
        return CycNum._make(field, norm.num[0], [self.den * v for v in rest.num])

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
    """x^0, x^1, ..., x^upto: the weights of the packed products."""
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


def mod_p_image(level: int, p: int) -> Callable[[CycNum], int]:
    """The reduction of Q(zeta_{2l}) into GF(p) for a prime p = 1 mod 2l.

    It sends zeta to a fixed primitive 2l-th root of unity mod p, so it is a
    ring homomorphism on the numbers whose denominator is prime to p; the
    returned map raises ``ArithmeticError`` when a denominator vanishes.
    """
    degree = cyclotomic_field(level).degree
    z = root_of_unity(p, 2 * level)
    zpows = [pow(z, k, p) for k in range(degree)]

    def image(c: CycNum) -> int:
        if c.field.level != level:
            raise ValueError("mixed cyclotomic levels")
        if c.den % p == 0:
            raise ArithmeticError("denominator vanishes mod p")
        total = sum(v * zk for v, zk in zip(c.num, zpows) if v)
        return total * pow(c.den, -1, p) % p

    return image


# ---------------------------------------------------------------------------
# Packed multiply-accumulate (Kronecker substitution)
# ---------------------------------------------------------------------------


def _kronecker_width(xmax: int, ymax: int, pairs: int, degree: int) -> int:
    """Digit width in bits that holds any sum of ``pairs`` products x*y with
    numerators bounded by ``xmax`` and ``ymax``.

    A digit of one product is a sum of at most ``degree`` terms x_i*y_j, so a
    digit of the sum is below pairs*degree*xmax*ymax < 2^(w-2) in absolute
    value, and balanced digits need only < 2^(w-1).
    """
    return xmax.bit_length() + ymax.bit_length() + (pairs * degree).bit_length() + 2


def _common_numerators(values: Collection[CycNum]) -> tuple[int, list[list[int]]]:
    den = math.lcm(*(c.den for c in values))
    return den, [[v * (den // c.den) for v in c.num] for c in values]


def _pack(num: list[int], width: int) -> int:
    out = 0
    for v in reversed(num):
        out = (out << width) + v
    return out


class KroneckerPacking:
    """Exact sums of products x*y of CycNums as sums of Python integers.

    Each numerator of ``xs`` (over their common denominator) and of ``ys``
    (over theirs) becomes one integer with a coefficient per base-2^w digit
    (D. Harvey, J. Symb. Comput. 44, 2009): one integer product is then one
    polynomial product, and integers add like polynomials.  ``x`` and ``y``
    hold the packed values in input order; :meth:`unpack` turns any integer
    sum of at most ``pairs`` products ``x[i] * y[j]`` back into a CycNum.
    """

    __slots__ = ("field", "den", "width", "x", "y")

    def __init__(
        self,
        field: CyclotomicField,
        xs: Collection[CycNum],
        ys: Collection[CycNum],
        pairs: int,
    ):
        dx, nx = _common_numerators(xs)
        dy, ny = _common_numerators(ys)
        xmax = max(map(abs, chain.from_iterable(nx)), default=0)
        ymax = max(map(abs, chain.from_iterable(ny)), default=0)
        self.field = field
        self.den = dx * dy
        self.width = _kronecker_width(xmax, ymax, pairs, field.degree)
        self.x = [_pack(num, self.width) for num in nx]
        self.y = [_pack(num, self.width) for num in ny]

    def unpack(self, total: int) -> CycNum:
        """The CycNum of a sum of packed products, reduced and normalized."""
        width = self.width
        mask = (1 << width) - 1
        half = 1 << (width - 1)
        prod = []
        for _ in range(2 * self.field.degree - 1):
            digit = total & mask
            if digit >= half:
                digit -= 1 << width
            prod.append(digit)
            total = (total - digit) >> width
        if total:
            raise ArithmeticError("packed sum overflowed its top digit")
        return CycNum._make(self.field, self.den, self.field._reduce(prod))


def packed_products(
    field: CyclotomicField,
    xterms: Mapping[Hashable, CycNum],
    weights: Sequence[CycNum],
    yterms: Mapping[Hashable, CycNum],
    hits: Iterable[Iterable["tuple[Hashable, int] | None"]],
) -> dict[Hashable, CycNum]:
    """Sums of products x * w * y over pairs of terms, one per result key.

    ``hits`` holds one row per x term and one entry per y term, both in the
    order of the mappings: ``(key, l)`` when the pair adds
    ``x * weights[l] * y`` to ``key``, ``(key, ~l)`` when it adds the
    negated product, and None when it adds nothing.  ``weights[0]`` is one.
    Every x is multiplied by every weight once and packed with its negation,
    so a pair costs one integer multiply-add and a result key one unpack.
    """
    if not xterms or not yterms:
        return {}
    xs = [c * w if l else c for c in xterms.values() for l, w in enumerate(weights)]
    pack = KroneckerPacking(field, xs, yterms.values(), len(xterms) * len(yterms))
    stride = len(weights)
    neg = [-v for v in pack.x]
    acc: dict[Hashable, int] = {}
    for start, row in zip(range(0, len(xs), stride), hits):
        # Index ~l of xrow reads the negated product -x * weights[l].
        xrow = pack.x[start : start + stride] + neg[start : start + stride][::-1]
        for hit, y in zip(row, pack.y):
            if hit is not None:
                key, l = hit
                acc[key] = acc.get(key, 0) + xrow[l] * y
    return {key: pack.unpack(total) for key, total in acc.items()}


# ---------------------------------------------------------------------------
# Linear combinations
# ---------------------------------------------------------------------------


class LinComb:
    """A finite linear combination: ``terms`` maps basis keys to nonzero
    CycNums of ``field``, and ``space`` names where the keys live (the strand
    count n, or (t, n) for a cell module).

    A subclass checks a key in ``_check_key`` and defines its product.
    Combining two elements raises ``ValueError`` unless they agree in class,
    space and level.
    """

    __slots__ = ("space", "field", "terms")

    def __init__(self, space, field: CyclotomicField, terms: Mapping | None = None):
        self.space = space
        self.field = field
        self.terms: dict = {}
        for key, c in (terms or {}).items():
            self._check_key(key)
            if c.field.level != field.level:
                raise ValueError(f"a level-{c.field.level} coefficient at level {field.level}")
            if c:
                self.terms[key] = c

    def _check_key(self, key) -> None:
        raise NotImplementedError

    def _kind(self) -> tuple:
        """What two combinations must share: (class, space, level)."""
        return type(self).__name__, self.space, self.field.level

    def _check_compatible(self, other: LinComb) -> None:
        if other._kind() != self._kind():
            raise ValueError(f"cannot combine {self._kind()} with {other._kind()}")

    def _like(self, terms: Mapping):
        """A combination in this space from keys that are valid by
        construction; zero coefficients are dropped."""
        out = object.__new__(type(self))
        out.space, out.field = self.space, self.field
        out.terms = {key: c for key, c in terms.items() if c}
        return out

    def coefficient(self, key) -> CycNum:
        return self.terms.get(key, self.field.zero)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinComb):
            return NotImplemented
        return other._kind() == self._kind() and other.terms == self.terms

    def __hash__(self) -> int:
        return hash((self._kind(), frozenset(self.terms.items())))

    def __add__(self, other: LinComb):
        if not isinstance(other, LinComb):
            return NotImplemented
        self._check_compatible(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            s = out.get(key)
            out[key] = c if s is None else s + c
        return self._like(out)

    def __neg__(self):
        return self._like({key: -c for key, c in self.terms.items()})

    def __sub__(self, other: LinComb):
        return self + (-other)

    def scale(self, scalar: int | Fraction | CycNum):
        return self._like({key: c * scalar for key, c in self.terms.items()})

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
        planes = np.array([_common_numerators(r)[1] for r in self.rows], dtype=object)
        planes = planes.reshape(self.nrows, self.ncols, self.field.degree)
        return plane_rank(self.field, planes.astype(int_dtype(maxabs(planes))))

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
    """The common denominator of ``values`` and their numerators as an integer
    plane of shape (len(values), degree), int64 when every entry fits."""
    den, nums = _common_numerators(values)
    plane = np.array(nums, dtype=object).reshape(len(nums), field.degree)
    return den, plane.astype(int_dtype(maxabs(plane)))


def plane_products(field: CyclotomicField, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """out[i, j] = x[i] * y[j] for coefficient rows x (k, d) and y (c, d)."""
    return y @ np.tensordot(x, field._mult, axes=(1, 0))


@lru_cache(maxsize=None)
def power_planes(x: CycNum, upto: int) -> np.ndarray:
    """out[l, j] = zeta^j * x^l for l = 0 .. upto, integer rows of shape
    (upto + 1, degree, degree), for an x with integer coefficients: a plane
    acc (k, upto + 1, degree) of coefficients of x^l is summed to k values by
    acc.reshape(k, -1) @ out.reshape(-1, degree)."""
    field = x.field
    if x.den != 1:
        raise ValueError("power planes need integer coefficients")
    rows = np.array([c.num for c in powers(x, upto)], dtype=object)
    out = plane_products(field, rows, np.eye(field.degree, dtype=object))
    out = out.astype(int_dtype(maxabs(out)))
    out.setflags(write=False)
    return out


def plane_rank(field: CyclotomicField, planes: np.ndarray) -> int:
    """Exact rank of integer coefficient planes (entry (i, j) over row i's own
    denominator, which does not change the rank).

    Fraction-free elimination (E. H. Bareiss, Math. Comp. 22, 1968): with
    pivot * R = N an integer (the Galois norm of :meth:`CycNum.inverse`), a
    row with entry e in the pivot column becomes N * row - (e * R) * pivrow
    over its content.  int64 while a bound on the update is below 2^62,
    Python integers from the first update where it is not."""
    a, rank = planes, 0
    while a.size:
        nz = (a != 0).any(axis=2)
        cols = np.flatnonzero(nz.any(axis=0))
        if not cols.size:
            break
        col, hit = cols[0], nz[:, cols[0]]
        piv, *others = np.flatnonzero(hit)
        rank += 1
        new = a[:0, col + 1 :]
        if others:
            inv = CycNum(field, 1, tuple(map(int, a[piv, col]))).inverse()
            factor = np.array([inv.num], dtype=object)
            e = plane_products(field, a[others, col].astype(object), factor)[:, 0]
            bound = inv.den * maxabs(a[others, col + 1 :])
            if bound + maxabs(e) * maxabs(a[piv, col + 1 :]) * field._mult_bound >= _INT64_SAFE:
                a = a.astype(object)
            new = inv.den * a[others, col + 1 :]
            new -= plane_products(field, e.astype(a.dtype), a[piv, col + 1 :])
            g = np.gcd.reduce(new.reshape(len(new), -1), axis=1)
            new = new[g != 0] // g[g != 0, None, None]
        a = np.concatenate((a[~hit, col + 1 :], new))
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
