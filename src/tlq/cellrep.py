"""Cell modules W_t(n), the bilinear cell form, simple dimensions by Gram
rank and by the alternating sum over the reflection orbit, and the
classification checks for the semisimple quotient.

The dimension of the simple head L_t is *defined* computationally as the
rank of the cell Gram matrix, found by exact Gaussian elimination over
Q(zeta_{2l}); the representation-theoretic formulas are cross-checks
computed by independent routes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping

import numpy as np

from .diagram import (
    Diagram,
    compose_pairings,
    enumerate_monic,
    identity_pairing,
    monic_pairings,
    star_pairing,
)
from .exactnum import CycNum, CyclotomicField, ExactMatrix, cyclotomic_field
from .tlalg import TLElement, _delta_powers, embedded_jones_wenzl


def admissible_t(n: int) -> tuple[int, ...]:
    """T(n): the through-strand labels 0 <= t <= n with t = n (mod 2)."""
    return tuple(range(n % 2, n + 1, 2))


@dataclass(frozen=True)
class CellModule:
    """The cell module W_t(n) with its monic diagram basis."""

    t: int
    n: int
    level: int

    @property
    def basis(self) -> tuple[Diagram, ...]:
        return enumerate_monic(self.t, self.n)

    @property
    def dim(self) -> int:
        return len(monic_pairings(self.t, self.n))


class CellVector:
    """A linear combination of monic (t, n)-diagrams."""

    __slots__ = ("t", "n", "field", "terms")

    def __init__(
        self,
        t: int,
        n: int,
        field: CyclotomicField,
        terms: Mapping[Diagram, CycNum] | None = None,
    ):
        self.t = t
        self.n = n
        self.field = field
        self.terms: dict[Diagram, CycNum] = {}
        if terms:
            for d, c in terms.items():
                if d.src != t or d.dst != n:
                    raise ValueError("diagram is not a (t, n)-diagram")
                if c:
                    self.terms[d] = c

    @classmethod
    def from_diagram(cls, d: Diagram, level: int) -> CellVector:
        field = cyclotomic_field(level)
        return cls(d.src, d.dst, field, {d: field.one})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CellVector):
            return NotImplemented
        return (
            (self.t, self.n, self.field.level) == (other.t, other.n, other.field.level)
            and self.terms == other.terms
        )

    def __add__(self, other: CellVector) -> CellVector:
        out = dict(self.terms)
        for d, c in other.terms.items():
            s = out.get(d)
            out[d] = c if s is None else s + c
        return CellVector(self.t, self.n, self.field, out)

    def __sub__(self, other: CellVector) -> CellVector:
        return self + other.scale(-1)

    def scale(self, scalar) -> CellVector:
        if isinstance(scalar, (int, Fraction)):
            scalar = self.field.from_fraction(Fraction(scalar))
        return CellVector(
            self.t, self.n, self.field, {d: c * scalar for d, c in self.terms.items()}
        )

    def coefficient(self, d: Diagram) -> CycNum:
        return self.terms.get(d, self.field.zero)

    def __repr__(self) -> str:
        return f"CellVector(t={self.t}, n={self.n}, {len(self.terms)} terms)"


def cell_action(x: TLElement, v: CellVector) -> CellVector:
    """The cellular action: compose and drop terms of lower through-degree."""
    if x.n != v.n or x.field.level != v.field.level:
        raise ValueError("strand count or level mismatch")
    t, n = v.t, v.n
    field = v.field
    pw = _delta_powers(field, 2 * n)
    out: dict[Diagram, CycNum] = {}
    for dv, cv in v.terms.items():
        for dx, cx in x.terms.items():
            pairing, loops = compose_pairings(t, n, n, dv.pairing, dx.pairing)
            through = sum(1 for b in range(t) if pairing[b] >= t)
            if through < t:
                continue
            c = cv * cx
            if loops:
                c = c * pw[loops]
            d = Diagram(t, n, pairing)
            s = out.get(d)
            out[d] = c if s is None else s + c
    return CellVector(t, n, field, out)


# ---------------------------------------------------------------------------
# The cell form and its Gram matrix
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _cell_gram_exponents(t: int, n: int) -> np.ndarray:
    """exponents[i, j] = k when phi(D_i, D_j) = delta^k, or -1 when the
    pairing vanishes; symmetric, level independent."""
    basis = monic_pairings(t, n)
    size = len(basis)
    ident = identity_pairing(t)
    out = np.full((size, size), -1, dtype=np.int16)
    stars = [star_pairing(t + n, p) for p in basis]
    for i in range(size):
        si = stars[i]
        for j in range(i, size):
            pairing, loops = compose_pairings(t, n, t, basis[j], si)
            if pairing == ident:
                out[i, j] = loops
                out[j, i] = loops
    out.setflags(write=False)
    return out


def gram_matrix(t: int, n: int, level: int) -> ExactMatrix:
    """The cell form Gram matrix on the monic basis of W_t(n), exactly."""
    if t not in admissible_t(n):
        raise ValueError("t is not admissible for n")
    field = cyclotomic_field(level)
    expo = _cell_gram_exponents(t, n)
    pw = _delta_powers(field, int(expo.max(initial=0)) + 1)
    zero = field.zero
    rows = [
        [zero if expo[i, j] < 0 else pw[int(expo[i, j])] for j in range(expo.shape[1])]
        for i in range(expo.shape[0])
    ]
    return ExactMatrix(field, rows)


def cell_pairing(v: CellVector, w: CellVector) -> CycNum:
    """The bilinear cell form phi_t(v, w)."""
    if (v.t, v.n, v.field.level) != (w.t, w.n, w.field.level):
        raise ValueError("mismatched cell modules")
    field = v.field
    t, n = v.t, v.n
    ident = identity_pairing(t)
    pw = _delta_powers(field, 2 * n)
    total = field.zero
    for dv, cv in v.terms.items():
        sv = star_pairing(t + n, dv.pairing)
        for dw, cw in w.terms.items():
            pairing, loops = compose_pairings(t, n, t, dw.pairing, sv)
            if pairing == ident:
                total = total + cv * cw * pw[loops]
    return total


# ---------------------------------------------------------------------------
# Simple dimensions: Gram rank route
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def simple_dim_rank(t: int, n: int, level: int) -> int:
    """dim L_t(n) as the rank of the cell Gram matrix, by exact elimination
    over Q(zeta_{2l}); exact elimination is its own certificate."""
    return gram_matrix(t, n, level).rank()


# ---------------------------------------------------------------------------
# The reflection map g and the alternating-sum route
# ---------------------------------------------------------------------------


def g_apply(t: int, level: int) -> int:
    """g(t) = (a+1) l + l - 2 - b for t = a l + b, defined off b = l - 1."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    a, b = divmod(t, level)
    if b == level - 1:
        raise ValueError(f"g is undefined at t = -1 mod {level}")
    return (a + 1) * level + level - 2 - b


def g_orbit(t: int, level: int, bound: int) -> tuple[int, ...]:
    """t, g(t), g^2(t), ... while the values stay <= bound."""
    out = [t]
    while True:
        nxt = g_apply(out[-1], level)
        if nxt > bound:
            return tuple(out)
        out.append(nxt)


def simple_dim_altsum(t: int, n: int, level: int) -> int:
    """dim L_t(n) by the alternating sum of cell dimensions over the
    g-orbit; terms vanish once the orbit passes n."""
    from .combinatorics import w_dim

    if t % level == level - 1:
        raise ValueError("t is outside the domain of g")
    total = 0
    sign = 1
    for s in g_orbit(t, level, n):
        total += sign * w_dim(s, n)
        sign = -sign
    return total


def quotient_labels(level: int, n: int) -> tuple[int, ...]:
    """Labels of the simple modules of the semisimple quotient: the
    admissible t with t <= level - 2.  Below n = level - 1 the quotient
    coincides with the whole algebra."""
    return tuple(t for t in admissible_t(n) if t <= level - 2)


# ---------------------------------------------------------------------------
# Annihilation of cell modules by the Jones-Wenzl idempotent
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def annihilation_check(t: int, n: int, level: int) -> bool:
    """True iff E maps W_t into the radical of the cell form, checked
    exactly: every pairing phi(E . D_i, D_j) must vanish."""
    if t not in admissible_t(n):
        raise ValueError("t is not admissible for n")
    if n < level - 1:
        raise ValueError("the idempotent needs n >= level - 1")
    field = cyclotomic_field(level)
    ej = embedded_jones_wenzl(level, n)
    basis = enumerate_monic(t, n)
    index = {d: i for i, d in enumerate(basis)}
    expo = _cell_gram_exponents(t, n)
    pw = _delta_powers(field, int(expo.max(initial=0)) + 1)
    for d in basis:
        image = cell_action(ej, CellVector.from_diagram(d, level))
        if image.is_zero():
            continue
        support = [(index[dd], c) for dd, c in image.terms.items()]
        for j in range(len(basis)):
            total = field.zero
            for i, c in support:
                e = int(expo[i, j])
                if e >= 0:
                    total = total + c * pw[e]
            if total:
                return False
    return True
