"""Independent reference implementations used only as test oracles.

These are deliberately written with different algorithms (and different
data layouts) from the package code they cross-check.
"""

from __future__ import annotations

from fractions import Fraction

from tlq.diagram import Diagram, closure_loops, compose_pairings
from tlq.exactnum import CycNum, cyclotomic_field
from tlq.tlalg import TLElement, _delta_powers


def slow_blade_product(
    j_gens: list[int], k_gens: list[int]
) -> tuple[int, int, tuple[int, ...]]:
    """Multiply ordered products of generators by literal bubble reordering.

    Returns (sign, number of gamma^2 contractions, sorted surviving
    generators).  Generators anticommute; equal neighbours contract.
    """
    word = list(j_gens) + list(k_gens)
    sign = 1
    contractions = 0
    changed = True
    while changed:
        changed = False
        for i in range(len(word) - 1):
            if word[i] == word[i + 1]:
                del word[i : i + 2]
                contractions += 1
                changed = True
                break
            if word[i] > word[i + 1]:
                word[i], word[i + 1] = word[i + 1], word[i]
                sign = -sign
                changed = True
                break
    return sign, contractions, tuple(word)


def fraction_rank(rows: list[list[int]]) -> int:
    """Rank of an integer matrix by plain Fraction elimination."""
    m = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                f = m[i][col] / m[rank][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def modp_rank(rows: list[list[int]], p: int) -> int:
    """Rank of an integer matrix over GF(p) by forward elimination on Python
    ints, scanning columns for pivots."""
    m = [[v % p for v in row] for row in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][col], -1, p)
        m[rank] = [v * inv % p for v in m[rank]]
        for i in range(rank + 1, len(m)):
            f = m[i][col]
            if f:
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def quantum_int_by_ratio(m: int, level: int) -> CycNum:
    """[m]_q as the literal ratio (q^m - q^-m) / (q - q^-1)."""
    field = cyclotomic_field(level)
    q = field.q
    return (q**m - q**-m) * (q - q**-1).inverse()


def tl_product(x: TLElement, y: TLElement) -> TLElement:
    """x * y in TL_n with one CycNum product and one validated Diagram per
    diagram pair; the reference for the packed product."""
    n = x.n
    delta_pow = _delta_powers(x.field, n)
    out = {}
    for dy, cy in y.terms.items():
        for dx, cx in x.terms.items():
            # "apply y, then x": stack x on top of y.
            pairing, loops = compose_pairings(n, n, n, dy.pairing, dx.pairing)
            c = cx * cy
            if loops:
                c = c * delta_pow[loops]
            d = Diagram(n, n, pairing)
            s = out.get(d)
            out[d] = c if s is None else s + c
    return TLElement(n, x.field, out)


def markov_trace(x: TLElement) -> CycNum:
    """The Markov trace with one CycNum product per term and a fresh
    delta^(-n); the reference for the packed trace."""
    n = x.n
    field = x.field
    total = field.zero
    if not x.terms:
        return total
    dinv_n = _delta_powers(field, n)[n].inverse()
    pw = _delta_powers(field, 2 * n)
    for d, c in x.terms.items():
        total = total + c * pw[closure_loops(n, d.pairing)]
    return total * dinv_n
