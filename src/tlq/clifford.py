"""The even Clifford algebra on n generators with gamma_i^2 = 1/2, blade
arithmetic over the level-4 cyclotomic field (which contains both i and
sqrt(2) = delta), and the homomorphism from TL_n(q) at level 4.

Blades are subsets of {1..n} encoded as bitmasks; the reordering sign is the
parity of the transpositions needed to sort a concatenation, and each
repeated generator contracts to a factor 1/2.  ``BladeElement`` is a
:class:`tlq.exactnum.LinComb` whose product is one
:func:`tlq.exactnum.pair_sums` call over (1/2)^c and its negations, and
``phi`` is one :func:`tlq.exactnum.term_sums` call over the table images of
its diagrams, keyed by blade mask; both return the nonzero sums as CycNums.
The table of images follows :meth:`tlq.diagram.DiagramBasis.walk` of the
right multiplications by the generators, and the dimension of its span is a
rank on :class:`tlq._intlinalg.ModpEchelon`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Mapping

import numpy as np

from . import _intlinalg
from .diagram import diagram_basis, identity_pairing
from .exactnum import (
    CycNum,
    CyclotomicField,
    ExactMatrix,
    LinComb,
    cyclotomic_field,
    mod_p_image,
    pair_sums,
    powers,
    term_sums,
)
from .tlalg import TLElement

_LEVEL = 4
_HALF = cyclotomic_field(_LEVEL).from_fraction(Fraction(1, 2))


def _field() -> CyclotomicField:
    return cyclotomic_field(_LEVEL)


@lru_cache(maxsize=None)
def _signed_halves(top: int) -> tuple[CycNum, ...]:
    """(1/2)^0 .. (1/2)^top, then their negations: the blade product's weights."""
    return powers(_HALF, top) + tuple(-h for h in powers(_HALF, top))


def _mul_basis(j: int, k: int) -> tuple[int, int]:
    """gamma_J gamma_K = +-(1/2)^c gamma_(J^K) as (J^K, c) for the plus sign
    and (J^K, ~c) for the minus sign."""
    swaps = 0
    rest = k
    while rest:
        low = rest & (-rest)
        pos = low.bit_length()  # bits strictly above this position in j
        swaps += (j >> pos).bit_count()
        rest ^= low
    contractions = (j & k).bit_count()
    return j ^ k, (~contractions if swaps & 1 else contractions)


class BladeElement(LinComb):
    """A linear combination of blades gamma_J over Q(zeta_8)."""

    __slots__ = ()

    def __init__(self, n: int, terms: Mapping[int, CycNum] | None = None):
        super().__init__(n, _field(), terms)

    n = property(lambda self: self.space)

    def _check_key(self, mask: int) -> None:
        if mask >> self.n:
            raise ValueError("blade uses a generator beyond n")

    @classmethod
    def zero(cls, n: int) -> BladeElement:
        return cls(n)

    @classmethod
    def one(cls, n: int) -> BladeElement:
        return cls(n, {0: _field().one})

    def __mul__(self, other) -> BladeElement:
        if isinstance(other, (int, Fraction, CycNum)):
            return self.scale(other)
        if not isinstance(other, LinComb):
            return NotImplemented
        self._check_compatible(other)
        # gamma_J gamma_K contracts |J & K| generators, each to a factor 1/2.
        top = min(max(map(int.bit_count, e.terms), default=0) for e in (self, other))
        pairs = [_mul_basis(j, k) for j in self.terms for k in other.terms]
        met: dict[int, int] = {}
        sums = pair_sums(
            self.field, self.terms.values(), other.terms.values(),
            [met.setdefault(mask, len(met)) for mask, _ in pairs],
            [c if c >= 0 else top - c for _, c in pairs],
            _signed_halves(top),
        )
        # Masks are numbered as met: at large n they are too sparse to index.
        masks = list(met)
        return self._like((masks[k], c) for k, c in sums)

    def constant_term(self) -> CycNum:
        return self.coefficient(0)

    def is_even(self) -> bool:
        return all(m.bit_count() % 2 == 0 for m in self.terms)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        names = []
        for m in sorted(self.terms):
            gens = "".join(f"g{i+1}" for i in range(self.n) if m >> i & 1) or "1"
            names.append(f"({self.terms[m]!r})*{gens}")
        return " + ".join(names)


def gamma(n: int, i: int) -> BladeElement:
    """The generator gamma_i (1-based)."""
    if not 1 <= i <= n:
        raise IndexError("generator index out of range")
    return BladeElement(n, {1 << (i - 1): _field().one})


def omega(n: int, i: int, j: int) -> BladeElement:
    """omega_ij = (gamma_i gamma_j - gamma_j gamma_i) / 2."""
    gi, gj = gamma(n, i), gamma(n, j)
    return (gi * gj - gj * gi).scale(Fraction(1, 2))


def constant_term_trace(a: BladeElement) -> CycNum:
    """The canonical trace of the even Clifford algebra: the coefficient of
    the empty blade."""
    return a.constant_term()


def phi_generator(n: int, j: int) -> BladeElement:
    """The image of f_j: (1 + 2 i gamma_j gamma_{j+1}) / sqrt(2), with
    i = q^2 and sqrt(2) = delta inside the level-4 field."""
    field = _field()
    dinv = field.delta.inverse()
    mask = (1 << (j - 1)) | (1 << j)
    return BladeElement(n, {0: dinv, mask: dinv * field.q * field.q * 2})


@lru_cache(maxsize=None)
def _phi_table(n: int) -> tuple[BladeElement, ...]:
    """phi on every diagram of TL_n by basis position, built by loop-free right
    multiplication from the identity, phi(D f_i) = phi(D) phi(f_i), along
    :meth:`DiagramBasis.walk` of the product columns at the generators."""
    basis = diagram_basis(0, 2 * n)
    start = basis.index[identity_pairing(n)]
    images = [phi_generator(n, i) for i in range(1, n)]
    table = [BladeElement.one(n)] * len(basis.pairings)  # the walk sets all but start
    for steps in basis.walk(start, basis.generator_columns[0].T):
        for i, move, k in steps:
            table[k] = table[i] * images[move]
    return tuple(table)


def phi(x: TLElement) -> BladeElement:
    """The algebra homomorphism TL_n at level 4 to the even Clifford
    algebra, determined by the generator images."""
    if x.field.level != _LEVEL:
        raise ValueError("phi is defined at level 4")
    if not x.terms:
        return BladeElement.zero(x.n)
    table, index = _phi_table(x.n), diagram_basis(0, 2 * x.n).index
    # Each coefficient of an image times its diagram's, summed per blade mask.
    row, masks, ys = zip(*(
        (i, m, c) for i, d in enumerate(x.terms) for m, c in table[index[d.pairing]].terms.items()
    ))
    return BladeElement(x.n)._like(term_sums(x.field, x.terms.values(), ys, row, masks))


def even_masks(n: int) -> tuple[int, ...]:
    return tuple(m for m in range(1 << n) if m.bit_count() % 2 == 0)


def image_dimension(n: int) -> int:
    """Rank of span{phi(D) : D diagram basis} inside the even subalgebra.

    A full mod-p rank of 2^(n-1) is already exact (it meets the dimension of
    the ambient space); otherwise fall back to :func:`_image_dimension_exact`.
    """
    table = _phi_table(n)
    col = {m: k for k, m in enumerate(even_masks(n))}
    p = next(_intlinalg.working_primes(order=2 * _LEVEL))
    image = mod_p_image(_LEVEL, p)
    rows = np.zeros((len(table), len(col)))
    for r, blade in enumerate(table):
        for m, c in blade.terms.items():
            rows[r, col[m]] = image(c)
    if len(_intlinalg.ModpEchelon(len(col), p).add_rows(rows)) == len(col):
        return len(col)
    return _image_dimension_exact(n)


def _image_dimension_exact(n: int) -> int:
    """The rank of :func:`image_dimension` by exact elimination over Q(zeta)."""
    masks = even_masks(n)
    rows = [[blade.coefficient(m) for m in masks] for blade in _phi_table(n)]
    return ExactMatrix(_field(), rows).rank()


def so_commutator_report(n: int) -> dict[str, bool]:
    """Check [w_ij, w_kl] = d_jk w_il - d_jl w_ik - d_ik w_jl + d_il w_jk
    over all index quadruples, plus w_ij = gamma_i gamma_j off the diagonal.
    """
    pair_ok = True
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j and omega(n, i, j) != gamma(n, i) * gamma(n, j):
                pair_ok = False
    comm_ok = True
    om = {(i, j): omega(n, i, j) for i in range(1, n + 1) for j in range(1, n + 1)}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            for k in range(1, n + 1):
                for l in range(1, n + 1):
                    if k == l:
                        continue
                    lhs = om[i, j] * om[k, l] - om[k, l] * om[i, j]
                    rhs = BladeElement.zero(n)
                    if j == k:
                        rhs = rhs + om[i, l]
                    if j == l:
                        rhs = rhs - om[i, k]
                    if i == k:
                        rhs = rhs - om[j, l]
                    if i == l:
                        rhs = rhs + om[j, k]
                    if lhs != rhs:
                        comm_ok = False
    return {"omega_is_gamma_pair": pair_ok, "commutator_relations": comm_ok}
