"""The algebra TL_n(q) at a root of unity: diagram linear combinations, the
Jones trace, the Jones-Wenzl idempotent from the hook formula (each
coefficient an integer polynomial in q^2 times a power of q, read off the
field's zeta-power table), and the ideal it generates.

Multiplication convention: ``x * y`` acts as the composite "apply y, then x",
so that ``(x * y) . v = x . (y . v)`` for the cell action defined in
:mod:`tlq.cellrep`.  One closed loop removed during stacking contributes one
factor of delta = -(q + 1/q).

``TLElement`` is a :class:`tlq.exactnum.LinComb` labelled by pairings.
Its product, its trace and the check that the trace kills the Jones-Wenzl
ideal are exact sums of :mod:`tlq.exactnum`, weighted by the powers of
delta, on the stored coefficient planes; a product's sums are its stored
form, so no CycNum and no ``Diagram`` is built per result.  A product hands
the result and loop count of each pair to :func:`tlq.exactnum.pair_sums`:
up to n = ``PRODUCTS_MAX_N`` read in one gather from the product table of
``diagram_basis(0, 2n)``, past it composed, the composites numbered in
increasing order.  The trace is one
:func:`tlq.exactnum.table_sums` call on a one-row table of closure loops:
the identity's column of the meander matrix M (``cell_exponents``), and
past the cutoff each closure walked, so neither the product nor the trace
enumerates the basis there and both work at any n.  The trace table is M
with its rows relabelled by star, tr(D_y D_e) = delta^(M[star y, e] - n),
so the kill check is one ``table_sums`` call on M's columns at the
diagrams of E, and the trace rank is the rank of M.

The rank of the trace-form Gram matrix and the dimension of the ideal
generated by the Jones-Wenzl idempotent are certified exactly by a mod-p
sandwich at every size (the field is reduced mod p by
:func:`tlq.exactnum.mod_p_image`): ranks modulo a prime are exact lower
bounds, and the exactly verified inclusion of the ideal in the radical of
the trace (tr(E y) = 0 for every basis diagram y) turns the pair of lower
bounds into a two-sided pin.  All three read the one indexed basis
``diagram_basis(0, 2n)``.  The ideal's rank takes two phases: left ideals
from its product columns, then a closure under the right moves D -> D f_i,
views of its generator moves.  Both phases sum their rows through one
checked ``np.bincount`` scatter.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Mapping

import numpy as np

from . import _intlinalg
from .combinatorics import catalan
from .diagram import (
    PRODUCTS_MAX_N,
    Diagram,
    closure_loops,
    compose_pairings,
    diagram_basis,
    embed_pairing,
    generator_diagram,
    hook_poly,
    identity,
    identity_pairing,
    nesting_forest,
    rotate_to_flat,
    star_pairing,
    tl_basis,
)
from .exactnum import (
    CycNum,
    CyclotomicField,
    ExactMatrix,
    LinComb,
    cyclotomic_field,
    delta_ring,
    label_slots,
    mod_p_image,
    pair_sums,
    plane_rank,
    powers,
    quantum_int,
    sum_value,
    table_sums,
)


class TLElement(LinComb):
    """A finite linear combination of (n, n)-diagrams over Q(zeta_{2l})."""

    __slots__ = ()

    def __init__(
        self,
        n: int,
        field: CyclotomicField,
        terms: Mapping[Diagram, CycNum] | None = None,
    ):
        super().__init__(n, field, terms)

    n = property(lambda self: self.space)

    def _label(self, d: Diagram) -> tuple[int, ...]:
        if d.src != self.n or d.dst != self.n:
            raise ValueError("diagram does not live in TL_n")
        return d.pairing

    def _key(self, pairing: tuple[int, ...]) -> Diagram:
        return Diagram._trusted(self.n, self.n, pairing)

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, n: int, level: int) -> TLElement:
        return cls(n, cyclotomic_field(level))

    @classmethod
    def one(cls, n: int, level: int) -> TLElement:
        field = cyclotomic_field(level)
        return cls(n, field, {identity(n): field.one})

    @classmethod
    def from_diagram(cls, d: Diagram, level: int) -> TLElement:
        field = cyclotomic_field(level)
        return cls(d.src, field, {d: field.one})

    # -- multiplication ----------------------------------------------------

    def __mul__(self, other) -> TLElement:
        if isinstance(other, (int, Fraction, CycNum)):
            return self.scale(other)
        if not isinstance(other, LinComb):
            return NotImplemented
        self._check_compatible(other)
        if not self or not other:
            return self.scale(0)
        n, field = self.n, self.field
        # "apply y, then x": stack x on top of y, as the table's D_i D_j does.
        if n <= PRODUCTS_MAX_N:
            basis = diagram_basis(0, 2 * n)
            px, py = ([basis.index[p] for p in e.labels] for e in (self, other))
            target, loops = (table[np.ix_(px, py)] for table in basis.products)
            pairings = basis.pairings
        else:
            composed = [compose_pairings(n, n, n, pb, pa) for pa in self.labels for pb in other.labels]
            pairings, target = label_slots([pairing for pairing, _ in composed])
            loops = [l for _, l in composed]
        # A loop closed in the glued row passes through two of its n points.
        results, den, plane = pair_sums(
            field, (self.den, self.plane), (other.den, other.plane), target, loops,
            powers(field.delta, n // 2),
        )
        return self._like([pairings[k] for k in results], den, plane)

    def star(self) -> TLElement:
        """The * anti-automorphism: reflect every diagram, keep coefficients."""
        return self._relabelled(self.n, lambda p: star_pairing(2 * self.n, p))

    def __repr__(self) -> str:
        return " + ".join(f"({c!r})*{d.pairing}" for d, c in self.terms.items()) or "0"


@lru_cache(maxsize=None)
def _trace_weights(field: CyclotomicField, n: int) -> tuple[CycNum, ...]:
    """delta^(c - n) for c = 0 .. n: the Markov trace of a diagram of TL_n
    whose closure has c loops."""
    dinv = powers(field.delta, n)[n].inverse()
    return tuple(w * dinv for w in powers(field.delta, n))


def generator(n: int, i: int, level: int) -> TLElement:
    """The cup-cap generator f_i of TL_n with coefficient one."""
    return TLElement.from_diagram(generator_diagram(n, i), level)


def embed(x: TLElement, n: int) -> TLElement:
    """x (x) id^(n-m): juxtapose identity strands on the right."""
    if x.n > n:
        raise ValueError("cannot embed into fewer strands")
    return x._relabelled(n, lambda p: embed_pairing(x.n, n, p))


def jones_trace(x: TLElement) -> CycNum:
    """The Markov trace: each diagram D contributes delta^(c(D) - n) where
    c(D) counts the closed loops of the right-hand closure of D."""
    n, field = x.n, x.field
    if not x:
        return field.zero
    if n <= PRODUCTS_MAX_N:
        # c(D) is the identity's column of the meander matrix: D closed by the
        # identity's nested arcs is the Markov closure of D.
        basis = diagram_basis(0, 2 * n)
        pos = [basis.index[p] for p in x.labels]
        closure = basis.cell_exponents[pos, basis.index[identity_pairing(n)]]
    else:
        closure = np.array([closure_loops(n, p) for p in x.labels], dtype=np.intp)
    # One row: the sum of c_D delta^(c(D) - n), each loop count c <= n.
    return sum_value(field, table_sums(field, closure[None], (x.den, x.plane), _trace_weights(field, n)))


# ---------------------------------------------------------------------------
# The Jones-Wenzl idempotent
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JWIdempotent:
    """The unique idempotent of TL_{l-1} killed by every generator."""

    level: int
    element: TLElement


@lru_cache(maxsize=None)
def jones_wenzl(level: int) -> JWIdempotent:
    """E_{l-1} by the closed hook formula: the coefficient of a diagram D is
    the hook quotient of the arc-nesting forest of its flat rotation,
    evaluated at q by ``CyclotomicField.from_q_poly``."""
    field = cyclotomic_field(level)
    n = level - 1
    for m in range(1, level):
        if quantum_int(m, field.q).is_zero():
            raise ArithmeticError("[m]_q vanished below the level; wrong field setup")
    terms: dict[Diagram, CycNum] = {}
    for d in tl_basis(n):
        coeff = field.from_q_poly(*hook_poly(nesting_forest(rotate_to_flat(d))))
        if coeff:
            terms[d] = coeff
    return JWIdempotent(level, TLElement(n, field, terms))


@lru_cache(maxsize=None)
def embedded_jones_wenzl(level: int, n: int) -> TLElement:
    """E_{l-1} (x) id^(n-l+1) as an element of TL_n."""
    if n < level - 1:
        raise ValueError("TL_n does not contain E_{l-1} for n < l-1")
    return embed(jones_wenzl(level).element, n)


def jones_wenzl_by_recursion(level: int) -> TLElement:
    """E_{l-1} by the classical one-strand recursion
    E_{k+1} = E_k + ([k]_q / [k+1]_q) E_k f_k E_k.

    Independent of the closed hook formula; used as a cross-check oracle.
    """
    field = cyclotomic_field(level)
    e = TLElement.one(1, level)
    for k in range(1, level - 1):
        ratio = quantum_int(k, field.q) * quantum_int(k + 1, field.q).inverse()
        ek = embed(e, k + 1)
        fk = generator(k + 1, k, level)
        e = ek + ratio * (ek * fk * ek)
    return e


# ---------------------------------------------------------------------------
# Trace Gram matrix and the ideal dimension
# ---------------------------------------------------------------------------


def trace_gram_matrix(level: int, n: int) -> ExactMatrix:
    """Gram matrix G[D, D'] = tr(D D') of the Jones trace over the diagram
    basis of TL_n: the loops of each product D D' from the product columns
    plus the closure loops of D D'.  Exact; for moderate n."""
    field = cyclotomic_field(level)
    # A closed picture on 2n points has at most n loops.
    scaled = _trace_weights(field, n)
    basis = diagram_basis(0, 2 * n)
    targets, loops = basis.product_columns(range(len(basis.pairings)))
    expo = loops + basis.cell_exponents[targets, basis.index[identity_pairing(n)]]
    return ExactMatrix(field, [[scaled[c] for c in row] for row in expo.tolist()])


def _gram_rank_modp(level: int, n: int, p: int, dmod: int) -> int:
    # The trace table is the meander matrix with its rows relabelled, so both
    # have one rank.
    expo = diagram_basis(0, 2 * n).cell_exponents
    table = np.array([pow(dmod, c, p) for c in range(int(expo.max()) + 1)], dtype=np.float64)
    ech = _intlinalg.ModpEchelon(expo.shape[1], p)
    for r in range(0, len(expo), _intlinalg._CHUNK):
        ech.add_rows(table[expo[r : r + _intlinalg._CHUNK]])
    return ech.rank


def _assert_trace_kills_ideal(level: int, n: int):
    """Exact check that tr(E y) = 0 for every diagram y of TL_n; by trace
    cyclicity this puts the whole ideal <E> inside the radical of tr."""
    ej = embedded_jones_wenzl(level, n)
    field, basis = ej.field, diagram_basis(0, 2 * n)
    cols = basis.cell_exponents[:, [basis.index[p] for p in ej.labels]]
    # tr(E D_star(y)) = delta^(-n) sum_e c_e delta^M[y, e] for the meander
    # matrix M, whose entries are at most n; y runs over every diagram.
    results, _, _ = table_sums(field, cols, (ej.den, ej.plane), powers(field.delta, n))
    if results:
        raise ArithmeticError(f"tr(E y) != 0 at level={level}, n={n}: radical theorem violated")


def _row_sums(targets: np.ndarray, terms: np.ndarray, size: int) -> np.ndarray:
    """Rows of length ``size``, one per row of ``terms`` (its leading axes
    flattened): row r adds terms[r, k] at targets[r, k], ``targets``
    broadcast to the shape of ``terms``, in one ``np.bincount``.  Every sum
    stays exact in float64: (most terms in one slot) x (largest term) is
    checked against 2**53 before summing."""
    lead = np.arange(terms.size // terms.shape[-1]).reshape(*terms.shape[:-1], 1)
    slots = (targets + size * lead).ravel()
    if int(np.bincount(slots).max()) * int(terms.max()) >= _intlinalg._F64_SAFE:
        raise ArithmeticError("ideal row sums would leave the exact f64 range")
    return np.bincount(slots, terms.ravel(), size * lead.size).reshape(-1, size)


def _ideal_span_rank_modp(
    level: int, n: int, p: int, image: Callable, target: int
) -> int:
    """Mod-p rank of the two-sided ideal <E>, an exact lower bound for its
    dimension.  Phase one spans the left ideals L = TL_n E and TL_n E f_(l-1):
    row i of TL_n x sums c_j delta^loops[i, j] at targets[i, j] over the
    diagrams j of x, from the product columns.  E f_i is 0 for i < l - 1 and
    f_i E for i >= l, so L f_i lies in that span, and phase two maps only the
    rows after L by the n - 1 right moves D -> D f_i (``generator_columns``)
    until the rank reaches ``target``.  Both phases sum their rows with
    ``_row_sums`` and feed ``_CHUNK`` at a time."""
    chunk = _intlinalg._CHUNK
    basis = diagram_basis(0, 2 * n)
    size = len(basis.pairings)
    ej = embedded_jones_wenzl(level, n)
    weight = np.array([pow(image(ej.field.delta), l, p) for l in range(n + 1)], dtype=np.float64)
    ech = _intlinalg.ModpEchelon(size, p)
    for x in [ej] + ([ej * generator(n, level - 1, level)] if n >= level else []):
        done = ech.rank
        targets, loops = basis.product_columns([basis.index[p] for p in x.labels])
        coeffs = image(x).astype(np.float64)
        for r in range(0, size, chunk):
            terms = _intlinalg._mod(coeffs * weight[loops[r : r + chunk]], p)
            ech.add_rows(_row_sums(targets[r : r + chunk], terms, size))
    if done < ech.rank < target:
        # One map per generator, (target, weight) per source as (moves, 1, size).
        targets, loops = basis.generator_columns
        right, scale = targets.T[:, None], weight[loops.T[:, None]]
    # Rows from the last seed on are mapped once each, in the order they
    # entered; a row reduced since then differs from it by later rows only.
    while done < ech.rank < target:
        rows = ech.rows[done : done + chunk // len(right)]
        done += len(rows)
        ech.add_rows(_row_sums(right, rows * scale, size))
    return ech.rank


@dataclass(frozen=True)
class RadicalSplit:
    """Certified pair: rank of the trace Gram matrix on TL_n and the
    dimension of the ideal generated by the Jones-Wenzl idempotent."""

    level: int
    n: int
    gram_rank: int
    ideal_dim: int


@lru_cache(maxsize=None)
def radical_split(level: int, n: int) -> RadicalSplit:
    """Compute (rank tr-Gram, dim <E>) for TL_n, certified exactly.

    Logic: dim<E> >= s for any mod-p span rank s; rank(G) >= g for the mod-p
    Gram rank g; and tr(E y) = 0 for all y (verified exactly) forces
    rank(G) + dim<E> <= dim TL_n.  When g + s = dim TL_n all three
    inequalities are tight, so both numbers are exact.  Primes are retried;
    an unlucky prime can only fail to pin, never mis-certify.
    """
    if n < level - 1:
        raise ValueError("the ideal needs n >= level - 1")
    size = catalan(n)
    _assert_trace_kills_ideal(level, n)
    delta = cyclotomic_field(level).delta
    last = None
    for skip in range(3):
        p = next(_intlinalg.working_primes(order=2 * level, skip=skip))
        image = mod_p_image(level, p)
        dmod = image(delta)
        if not dmod:  # delta vanishes mod p; retry another prime
            continue
        rho_g = _gram_rank_modp(level, n, p, dmod)
        target = size - rho_g
        rho_j = _ideal_span_rank_modp(level, n, p, image, target)
        if rho_j == target:
            return RadicalSplit(level, n, rho_g, target)
        last = (rho_g, rho_j)
    raise ArithmeticError(
        f"radical split failed to pin at level={level}, n={n}: {last}"
    )


def ideal_dimension(level: int, n: int) -> int:
    """dim of the two-sided ideal <E_{l-1}> in TL_n, pinned by the mod-p
    sandwich of :func:`radical_split`."""
    return radical_split(level, n).ideal_dim


def trace_gram_rank(level: int, n: int) -> int:
    """Rank of the Jones trace form on TL_n (exactly).

    From n = level - 1 on it is the mod-p sandwich rank of
    :func:`radical_split`.  Below that there is no idempotent to pin
    against, and the rank is found by exact elimination over Z[delta] of
    the meander matrix (delta^c per entry), which is delta^n times the Gram
    matrix with its rows relabelled by star, so of the same rank.
    """
    if n < level - 1:
        ring = delta_ring(level)
        return plane_rank(ring, ring.power_table(n)[diagram_basis(0, 2 * n).cell_exponents])
    return radical_split(level, n).gram_rank
