"""Independent reference implementations used only as test oracles.

These are deliberately written with different algorithms (and different
data layouts) from the package code they cross-check.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from tlq import tlalg
from tlq.cellrep import CellVector
from tlq.clifford import BladeElement, _field, phi_generator
from tlq.diagram import (
    Diagram,
    closure_loops,
    compose_pairings,
    generator_diagram,
    generator_pairing,
    identity_pairing,
    monic_pairings,
    star_pairing,
    tl_basis,
    tl_pairings,
)
from tlq.exactnum import (
    CycNum,
    CyclotomicField,
    ExactMatrix,
    cyclotomic_field,
)
from tlq.tlalg import TLElement


def _powers(x: CycNum, upto: int) -> tuple[CycNum, ...]:
    out = [x.field.one]
    for _ in range(upto):
        out.append(out[-1] * x)
    return tuple(out)


def _delta_powers(field, upto: int) -> tuple[CycNum, ...]:
    return _powers(field.delta, upto)


def _half_powers(upto: int) -> tuple[CycNum, ...]:
    return _powers(_field().from_fraction(Fraction(1, 2)), upto)


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


def fraction_det(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix by plain Fraction elimination."""
    m = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for col in range(len(m)):
        piv = next((i for i in range(col, len(m)) if m[i][col]), None)
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv], det = m[piv], m[col], -det
        det *= m[col][col]
        for i in range(col + 1, len(m)):
            f = m[i][col] / m[col][col]
            m[i] = [a - f * b for a, b in zip(m[i], m[col])]
    return int(det)


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
    diagram pair; the reference for the product on coefficient planes."""
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
    delta^(-n); the reference for the trace on coefficient planes."""
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


def ideal_dimension_exact(level: int, n: int) -> int:
    """dim <E_{l-1}> by exact elimination of every product a E b over the
    diagram basis; the reference for :func:`tlq.tlalg.ideal_dimension`."""
    basis = tl_basis(n)
    units = [TLElement.from_diagram(d, level) for d in basis]
    ej = tlalg.embedded_jones_wenzl(level, n)
    right = [ej * b for b in units]
    products = dict.fromkeys(a * eb for a in units for eb in right)
    rows = [[x.coefficient(d) for d in basis] for x in products if x]
    return ExactMatrix(ej.field, rows).rank() if rows else 0


def q_poly_by_powers(field: CyclotomicField, shift: int, coeffs: list[int]) -> CycNum:
    """q^shift * sum_k coeffs[k] q^(2k), one power q ** (shift + 2k) per term
    (each negative exponent inverts q afresh); the reference for
    ``CyclotomicField.from_q_poly``."""
    total = field.zero
    for k, c in enumerate(coeffs):
        total = total + (field.q ** (shift + 2 * k)) * c
    return total


# The three loops below are the cell action, the cell form and the blade
# product with one CycNum product per pair of terms, the references for the
# shared product-sum step.


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


def _mul_basis(j: int, k: int) -> tuple[int, int, int]:
    """(result mask, sign, contractions) for gamma_J gamma_K."""
    swaps = 0
    rest = k
    while rest:
        low = rest & (-rest)
        pos = low.bit_length()  # bits strictly above this position in j
        swaps += (j >> pos).bit_count()
        rest ^= low
    return j ^ k, (-1 if swaps & 1 else 1), (j & k).bit_count()


def blade_product(self: BladeElement, other: BladeElement) -> BladeElement:
    """The blade product with one CycNum product per pair of blades and the
    sign applied as an integer factor."""
    if self.n != other.n:
        raise ValueError("generator count mismatch")
    halves = _half_powers(self.n)
    out: dict[int, CycNum] = {}
    for j, cj in self.terms.items():
        for k, ck in other.terms.items():
            mask, sign, contractions = _mul_basis(j, k)
            c = cj * ck * halves[contractions] * sign
            s = out.get(mask)
            out[mask] = c if s is None else s + c
    return BladeElement(self.n, out)


def phi(x: TLElement) -> BladeElement:
    """The level-4 homomorphism with each diagram image built by
    :func:`blade_product` along a walk of composed left products
    phi(f_i D) = phi(f_i) phi(D), and one CycNum product per (diagram, blade)
    term."""
    n = x.n
    images = [(generator_pairing(n, i), phi_generator(n, i)) for i in range(1, n)]
    table = {identity_pairing(n): BladeElement.one(n)}
    queue = list(table)
    for pairing in queue:
        for gen, image in images:
            # f_i D stacks f_i on top of D; a product with a loop is delta D.
            product, loops = compose_pairings(n, n, n, pairing, gen)
            if not loops and product not in table:
                table[product] = blade_product(image, table[pairing])
                queue.append(product)
    out: dict[int, CycNum] = {}
    for d, c in x.terms.items():
        for mask, b in table[d.pairing].terms.items():
            s = out.get(mask)
            out[mask] = c * b if s is None else s + c * b
    return BladeElement(n, out)


# The inverse in Q(zeta) as CycNum.inverse computed it before the Galois norm:
# the extended Euclidean algorithm in Q[x] modulo the cyclotomic polynomial.


def euclid_inverse(self: CycNum) -> CycNum:
    """Multiplicative inverse via the extended Euclidean algorithm in
    Q[x] modulo the cyclotomic polynomial."""
    if self.is_zero():
        raise ZeroDivisionError("inverse of zero")
    d = self.field.degree
    den = Fraction(self.den)
    a = [Fraction(v) / den for v in self.num]
    m = [Fraction(c) for c in self.field.modulus]
    # Extended gcd of a and m over Q[x]; m is irreducible so gcd is 1.
    r0, r1 = list(m), list(a)
    t0: list[Fraction] = [Fraction(0)]
    t1: list[Fraction] = [Fraction(1)]
    while True:
        r1 = _poly_trim(r1)
        if len(r1) == 1 and r1[0] == 0:
            raise ZeroDivisionError("element is not invertible")
        if len(r1) == 1:
            const = r1[0]
            inv = [c / const for c in t1]
            break
        q, r = _poly_divmod_q(r0, r1)
        r0, r1 = r1, r
        t0, t1 = t1, _poly_sub_q(t0, _poly_mul_q(q, t1))
    inv = inv + [Fraction(0)] * (d - len(inv))
    common = math.lcm(*(c.denominator for c in inv)) if inv else 1
    vec = [int(c * common) for c in inv[:d]]
    return CycNum._make(self.field, common, vec)


def _poly_trim(p: list[Fraction]) -> list[Fraction]:
    while len(p) > 1 and p[-1] == 0:
        p = p[:-1]
    return p


def _poly_divmod_q(
    a: list[Fraction], b: list[Fraction]
) -> tuple[list[Fraction], list[Fraction]]:
    a = list(a)
    b = _poly_trim(list(b))
    q = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    inv = 1 / b[-1]
    for k in range(len(a) - len(b), -1, -1):
        c = a[k + len(b) - 1] * inv
        q[k] = c
        if c:
            for j in range(len(b)):
                a[k + j] -= c * b[j]
    return q, _poly_trim(a)


def _poly_mul_q(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _poly_sub_q(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    n = max(len(a), len(b))
    a = a + [Fraction(0)] * (n - len(a))
    b = b + [Fraction(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


# The level-independent tables and the kill check as each consumer built them
# with its own index and its own per-pair loop, before the indexed basis.


def cell_gram_exponents(t: int, n: int) -> np.ndarray:
    """exponents[i, j] = k when the cell form pairs the monic (t, n)-diagrams
    D_i and D_j to delta^k, or -1 when the pairing vanishes; symmetric, level
    independent.  At t = 0 and 2n points it is the meander matrix, the trace
    form of TL_n up to a column permutation."""
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


def generator_action_maps(n: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Left and right multiplication by each generator as weighted functional
    graphs on the diagram basis: pairs (target index, loop count) per source.
    """
    basis = tl_pairings(n)
    size = len(basis)
    index = {pairing: i for i, pairing in enumerate(basis)}
    maps = []
    for i in range(1, n):
        gp = generator_diagram(n, i).pairing
        for side in ("left", "right"):
            tgt = np.empty(size, dtype=np.intp)
            loops = np.empty(size, dtype=np.int64)
            for k, pairing in enumerate(basis):
                if side == "left":  # f_i * D
                    res, l = compose_pairings(n, n, n, pairing, gp)
                else:  # D * f_i
                    res, l = compose_pairings(n, n, n, gp, pairing)
                tgt[k] = index[res]
                loops[k] = l
            tgt.setflags(write=False)
            loops.setflags(write=False)
            maps.append((tgt, loops))
    return tuple(maps)


def cell_generator_actions(t: int, n: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """f_k composed on top of each monic (t, n)-diagram, k = 1 .. n-1: pairs
    (target index, loop count) per source, the target -1 where the product
    joins two bottom points and so has fewer through strands."""
    basis = monic_pairings(t, n)
    index = {pairing: i for i, pairing in enumerate(basis)}
    maps = []
    for k in range(1, n):
        gp = generator_pairing(n, k)
        tgt = np.empty(len(basis), dtype=np.intp)
        loops = np.empty(len(basis), dtype=np.int64)
        for i, pairing in enumerate(basis):
            res, loops[i] = compose_pairings(t, n, n, pairing, gp)
            monic = all(res[b] >= t for b in range(t))
            tgt[i] = index[res] if monic else -1
        maps.append((tgt, loops))
    return tuple(maps)


def trace_exponents(n: int) -> np.ndarray:
    """exponents[y, e] = c with tr(D_e D_y) = delta^(c - n), one composition
    and one closure per pair, as in the kill check below."""
    basis = tl_pairings(n)
    out = np.empty((len(basis), len(basis)), dtype=np.int16)
    for i, y in enumerate(basis):
        for j, pe in enumerate(basis):
            pairing, loops = compose_pairings(n, n, n, y, pe)
            out[i, j] = loops + closure_loops(n, pairing)
    return out


def assert_trace_kills_ideal(level: int, n: int):
    """Exact check that tr(E y) = 0 for every diagram y of TL_n; by trace
    cyclicity this puts the whole ideal <E> inside the radical of tr."""
    field = cyclotomic_field(level)
    ej = tlalg.embedded_jones_wenzl(level, n)
    # The closure of y E has at most n loops (each passes through two of its
    # 2n points).
    pw = _delta_powers(field, n)
    for y in tl_pairings(n):
        total = field.zero
        for de, ce in ej.terms.items():
            pairing, loops = compose_pairings(n, n, n, y, de.pairing)
            total = total + ce * pw[loops + closure_loops(n, pairing)]
        # tr(E y) is this sum times delta^(-n), so it vanishes with the sum.
        if total:
            raise ArithmeticError(
                f"tr(E y) != 0 at level={level}, n={n}: radical theorem violated"
            )


# The three entry points of the exact sums in tlq.exactnum, one CycNum
# product and one CycNum sum per term, with the zero sums dropped and the
# results sorted: the references for pair_sums, term_sums and table_sums.


def _sorted_nonzero(out: dict) -> list[tuple[int, CycNum]]:
    return [(k, c) for k, c in sorted(out.items()) if c]


def pair_sums(field, xs, ys, target, index, weights) -> list[tuple[int, CycNum]]:
    """sum of x_i y_j weights[index[i][j]] per result target[i][j] >= 0."""
    out: dict[int, CycNum] = {}
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            if target[i][j] >= 0:
                out[target[i][j]] = out.get(target[i][j], field.zero) + x * y * weights[index[i][j]]
    return _sorted_nonzero(out)


def term_sums(field, xs, ys, row, target) -> list[tuple[int, CycNum]]:
    """sum of xs[row[k]] ys[k] per result target[k]."""
    out: dict[int, CycNum] = {}
    for y, r, k in zip(ys, row, target):
        out[k] = out.get(k, field.zero) + xs[r] * y
    return _sorted_nonzero(out)


def table_sums(field, table, xs, weights) -> list[tuple[int, CycNum]]:
    """sum over s of xs[s] weights[table[j][s]] (-1: nothing) per row j."""
    out: dict[int, CycNum] = {}
    for j, entries in enumerate(table):
        out[j] = field.zero
        for x, e in zip(xs, entries):
            if e >= 0:
                out[j] = out[j] + x * weights[e]
    return _sorted_nonzero(out)
