"""Cell modules W_t(n), the bilinear cell form, simple dimensions by Gram
rank and by the alternating sum over the reflection orbit, and the
classification checks for the semisimple quotient.  ``CellVector`` is a
:class:`tlq.exactnum.LinComb` labelled by pairings.  The cell action and
the form, each pair of diagrams composed, are one
:func:`tlq.exactnum.pair_sums` call each, the annihilation check one
:func:`tlq.exactnum.table_sums` call per image on the cell form table; each
returns the nonzero sums in the stored form of a combination.

The dimension of the simple head L_t is *defined* computationally as the
rank of the cell Gram matrix, found by exact elimination over Z[delta]
(:func:`tlq.exactnum.plane_rank` on the rows of delta^e gathered from the
exponent table); the representation-theoretic formulas are cross-checks
computed by independent routes.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Mapping

from .diagram import (
    Diagram,
    compose_pairings,
    diagram_basis,
    enumerate_monic,
    identity_pairing,
    star_pairing,
)
from .exactnum import (
    CycNum,
    CyclotomicField,
    ExactMatrix,
    LinComb,
    cyclotomic_field,
    delta_ring,
    pair_sums,
    plane_rank,
    powers,
    sum_value,
    table_sums,
)
from .tlalg import TLElement, embedded_jones_wenzl


def admissible_t(n: int) -> tuple[int, ...]:
    """T(n): the through-strand labels 0 <= t <= n with t = n (mod 2)."""
    return tuple(range(n % 2, n + 1, 2))


class CellVector(LinComb):
    """A linear combination of monic (t, n)-diagrams."""

    __slots__ = ()

    def __init__(
        self,
        t: int,
        n: int,
        field: CyclotomicField,
        terms: Mapping[Diagram, CycNum] | None = None,
    ):
        super().__init__((t, n), field, terms)

    t = property(lambda self: self.space[0])
    n = property(lambda self: self.space[1])

    def _label(self, d: Diagram) -> tuple[int, ...]:
        if (d.src, d.dst) != self.space:
            raise ValueError("diagram is not a (t, n)-diagram")
        return d.pairing

    def _key(self, pairing: tuple[int, ...]) -> Diagram:
        return Diagram._trusted(self.t, self.n, pairing)

    @classmethod
    def from_diagram(cls, d: Diagram, level: int) -> CellVector:
        field = cyclotomic_field(level)
        return cls(d.src, d.dst, field, {d: field.one})

    def __repr__(self) -> str:
        return f"CellVector(t={self.t}, n={self.n}, {len(self.labels)} terms)"


def cell_action(x: TLElement, v: CellVector) -> CellVector:
    """The cellular action: compose, and drop each composite that is not
    monic (it has lost a through strand, so it lies in a lower cell)."""
    if x.n != v.n or x.field.level != v.field.level:
        raise ValueError("strand count or level mismatch")
    t, n = v.t, v.n
    basis = diagram_basis(t, n)
    composed = [compose_pairings(t, n, n, a, b) for a in v.labels for b in x.labels]
    # A loop closed in the glued row uses one of the (n - t) / 2 top arcs of v.
    results, den, plane = pair_sums(
        v.field, (v.den, v.plane), (x.den, x.plane),
        [basis.index.get(pairing, -1) for pairing, _ in composed], [l for _, l in composed],
        powers(v.field.delta, (n - t) // 2),
    )
    return v._like([basis.pairings[k] for k in results], den, plane)


# ---------------------------------------------------------------------------
# The cell form and its Gram matrix
# ---------------------------------------------------------------------------


def gram_matrix(t: int, n: int, level: int) -> ExactMatrix:
    """The cell form Gram matrix on the monic basis of W_t(n), exactly."""
    if t not in admissible_t(n):
        raise ValueError("t is not admissible for n")
    field = cyclotomic_field(level)
    # Every closed loop uses one of the (n - t) / 2 top arcs of D_j.
    pw = powers(field.delta, (n - t) // 2)
    expo = diagram_basis(t, n).cell_exponents.tolist()
    return ExactMatrix(field, [[field.zero if e < 0 else pw[e] for e in row] for row in expo])


def cell_pairing(v: CellVector, w: CellVector) -> CycNum:
    """The bilinear cell form phi_t(v, w): each pair of diagrams composed as
    row 0 of the cell form table is, w's below v's reflection, so no table is
    built."""
    v._check_compatible(w)
    t, n = v.space
    ident, stars = identity_pairing(t), [star_pairing(t + n, a) for a in v.labels]
    composed = [compose_pairings(t, n, t, b, a) for a in stars for b in w.labels]
    # A pair that does not close to the identity drops by its target; every
    # loop uses one of the (n - t) / 2 top arcs of w.
    return sum_value(v.field, pair_sums(
        v.field, (v.den, v.plane), (w.den, w.plane),
        [0 if pairing == ident else -1 for pairing, _ in composed], [l for _, l in composed],
        powers(v.field.delta, (n - t) // 2),
    ))


# ---------------------------------------------------------------------------
# Simple dimensions: Gram rank route
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def simple_dim_rank(t: int, n: int, level: int) -> int:
    """dim L_t(n) as the rank of the cell Gram matrix, by exact elimination
    over Z[delta], its own certificate: the entries delta^e lie in Z[delta],
    and a rank does not change from Q(delta) to Q(zeta_{2l}).  The planes are
    the rows of delta^0 .. delta^k gathered by the exponent table."""
    if t not in admissible_t(n):
        raise ValueError("t is not admissible for n")
    ring = delta_ring(level)
    return plane_rank(ring, ring.power_table((n - t) // 2)[diagram_basis(t, n).cell_exponents])


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
    ej = embedded_jones_wenzl(level, n)
    field, basis = ej.field, diagram_basis(t, n)
    # phi(E . D_i, D_j) sums the image's coefficients times delta^e for the
    # exponents e = cell_exponents[j, s] of the symmetric form.
    weights = powers(field.delta, (n - t) // 2)
    for d in enumerate_monic(t, n):
        image = cell_action(ej, CellVector.from_diagram(d, level))
        support = [basis.index[p] for p in image.labels]
        if table_sums(field, basis.cell_exponents[:, support], (image.den, image.plane), weights)[0]:
            return False
    return True
