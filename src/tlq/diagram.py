"""Planar Temperley-Lieb (t, n)-diagrams and their combinatorics.

Boundary encoding: a diagram from t to n is a fixed-point-free involution on
the index line 0 .. t+n-1.  Index b < t is the *bottom* point at position
t-1-b (bottom read right to left); index t+j is the *top* point at position j
(left to right).  With the bottom reversed this way, rotating the bottom line
clockwise onto the left of the top line is a pure re-indexing, so planarity
of the diagram is exactly non-crossingness of the involution on the index
line, and the flat (0, t+n)-form of a diagram *is* its pairing tuple.

All functions here are pure and all values immutable.  ``diagram_basis``
is the one indexed basis of monic (t, n)-diagrams per (t, n), and the level
independent tables (generator moves, cell form, and the TL_n product table
for n <= ``PRODUCTS_MAX_N``) hang off it.  The tables are built without
composing pairs of diagrams: each generator f_k moves a diagram by a
cup-cap rule on its pairing, all k in one stacked array, and the cell form
<x, y> = x* y is invariant, <f_k x, y> = <x, f_k y>, so one composed row
of it and a walk of the moves by rounds give the rest.  On TL_n the moves
of the bottom points are the right multiplications D -> D f_i, the product
columns at the generators, and those of the top points fill the rest of
any column at any n, one gather per round, since (f_k D) D' = f_k (D D').
The cell form table of TL_n is the meander matrix, and its trace table is
the meander with the rows relabelled by star.

``hook_poly`` gives the hook quotient of an arc-nesting forest, the
coefficient of the Jones-Wenzl idempotent, as a power of q times an integer
polynomial in q^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator

import numpy as np

from .exactnum import poly_divexact


def _is_noncrossing_involution(pairing: tuple[int, ...]) -> bool:
    size = len(pairing)
    for i, j in enumerate(pairing):
        if not 0 <= j < size or j == i or pairing[j] != i:
            return False
    stack: list[int] = []
    for i, j in enumerate(pairing):
        if j > i:
            stack.append(j)
        elif stack.pop() != i:
            return False
    return True


@dataclass(frozen=True)
class Diagram:
    """A planar diagram from ``src`` bottom points to ``dst`` top points."""

    src: int
    dst: int
    pairing: tuple[int, ...]

    def __post_init__(self):
        if self.src < 0 or self.dst < 0 or (self.src + self.dst) % 2:
            raise ValueError("boundary sizes must be nonnegative of equal parity")
        if len(self.pairing) != self.src + self.dst:
            raise ValueError("pairing length must equal src + dst")
        if not _is_noncrossing_involution(self.pairing):
            raise ValueError("pairing is not a planar perfect matching")

    @classmethod
    def _trusted(cls, src: int, dst: int, pairing: tuple[int, ...]) -> "Diagram":
        """A diagram whose pairing is planar by construction, such as a
        composite of planar diagrams; skips the public constructor's checks."""
        d = object.__new__(cls)
        object.__setattr__(d, "src", src)
        object.__setattr__(d, "dst", dst)
        object.__setattr__(d, "pairing", pairing)
        return d


def identity(n: int) -> Diagram:
    return Diagram._trusted(n, n, identity_pairing(n))


def identity_pairing(n: int) -> tuple[int, ...]:
    p = [0] * (2 * n)
    for i in range(n):
        p[n - 1 - i] = n + i
        p[n + i] = n - 1 - i
    return tuple(p)


def generator_pairing(n: int, i: int) -> tuple[int, ...]:
    """Pairing of the cup-cap diagram f_i in TL_n (1 <= i <= n-1)."""
    if not 1 <= i <= n - 1:
        raise IndexError(f"generator index {i} out of range for {n} strands")
    p = list(identity_pairing(n))
    b0, b1 = n - i, n - 1 - i  # indexes of bottom positions i-1 and i
    t0, t1 = n + i - 1, n + i
    p[b0], p[b1] = b1, b0
    p[t0], p[t1] = t1, t0
    return tuple(p)


def generator_diagram(n: int, i: int) -> Diagram:
    return Diagram._trusted(n, n, generator_pairing(n, i))


def through_strands(d: Diagram) -> int:
    """Number of bottom points paired with top points."""
    return sum(1 for b in range(d.src) if d.pairing[b] >= d.src)


def monic_pairings(t: int, n: int) -> tuple[tuple[int, ...], ...]:
    """All pairings of monic diagrams t -> n, in lexicographic order."""
    if t > n or (t + n) % 2 or t < 0:
        return ()
    return tuple(sorted(tuple(p) for p in _gather_monic(t, n)))


def _gather_monic(t: int, n: int) -> Iterator[tuple[int, ...]]:
    size = t + n
    pairing = [-1] * size
    stack: list[int] = []

    def walk(i: int):
        if i == size:
            if not stack:
                yield tuple(pairing)
            return
        if stack:
            j = stack[-1]
            if not (j < t and i < t):
                stack.pop()
                pairing[i], pairing[j] = j, i
                yield from walk(i + 1)
                pairing[i] = pairing[j] = -1
                stack.append(j)
        if len(stack) < size - i:
            stack.append(i)
            yield from walk(i + 1)
            stack.pop()

    yield from walk(0)


def enumerate_monic(t: int, n: int) -> tuple[Diagram, ...]:
    """All monic diagrams t -> n in canonical (lexicographic) order.

    Empty when the parity fails or t > n.  The pairings are planar by
    construction, so the public constructor's checks are skipped.
    """
    return tuple(Diagram._trusted(t, n, p) for p in diagram_basis(t, n).pairings)


def tl_pairings(n: int) -> tuple[tuple[int, ...], ...]:
    """The diagram basis of TL_n as pairings, lexicographically ordered."""
    return diagram_basis(0, 2 * n).pairings


@lru_cache(maxsize=None)
def tl_basis(n: int) -> tuple[Diagram, ...]:
    return tuple(Diagram._trusted(n, n, p) for p in tl_pairings(n))


# ---------------------------------------------------------------------------
# Composition
# ---------------------------------------------------------------------------


def compose_pairings(
    t: int, m: int, n: int, pa: tuple[int, ...], pb: tuple[int, ...]
) -> tuple[tuple[int, ...], int]:
    """Glue A: t -> m below B: m -> n; returns (pairing of t -> n, loops).

    A's top position j (A-index t+j) meets B's bottom position j (B-index
    m-1-j).  Paths are followed endpoint to endpoint; closed loops live
    entirely in the glued middle row and are counted afterwards.
    """
    size = t + n
    res = [-1] * size
    seen = [False] * m  # middle row, indexed by position j
    for start in range(size):
        if res[start] >= 0:
            continue
        if start < t:
            in_a, cur = True, start
        else:
            in_a, cur = False, m + (start - t)
        while True:
            if in_a:
                nxt = pa[cur]
                if nxt < t:
                    end = nxt
                    break
                j = nxt - t
                seen[j] = True
                in_a, cur = False, m - 1 - j
            else:
                nxt = pb[cur]
                if nxt >= m:
                    end = t + (nxt - m)
                    break
                j = m - 1 - nxt
                seen[j] = True
                in_a, cur = True, t + j
        res[start] = end
        res[end] = start
    loops = 0
    for j0 in range(m):
        if seen[j0]:
            continue
        loops += 1
        j = j0
        while not seen[j]:
            seen[j] = True
            k = pa[t + j] - t  # arc in A within the middle row
            seen[k] = True
            j = m - 1 - pb[m - 1 - k]  # arc in B back to the middle row
    return tuple(res), loops


def compose(a: Diagram, b: Diagram) -> tuple[Diagram, int]:
    """The stacked diagram of a: t -> m followed by b: m -> n, plus the
    number of closed loops removed."""
    if a.dst != b.src:
        raise ValueError(f"cannot glue {a.src}->{a.dst} onto {b.src}->{b.dst}")
    pairing, loops = compose_pairings(a.src, a.dst, b.dst, a.pairing, b.pairing)
    return Diagram._trusted(a.src, b.dst, pairing), loops


def star_pairing(size: int, pairing: tuple[int, ...]) -> tuple[int, ...]:
    # Reflection in a horizontal line reverses the index line.
    return tuple(size - 1 - pairing[size - 1 - i] for i in range(size))


def star(d: Diagram) -> Diagram:
    """Reflection in a horizontal line: an involution Diagram(t,n) -> (n,t)."""
    return Diagram._trusted(d.dst, d.src, star_pairing(d.src + d.dst, d.pairing))


def rotate_to_flat(d: Diagram) -> Diagram:
    """The (0, t+n)-diagram obtained by rotating the bottom line clockwise.

    With the bottom-reversed boundary encoding this is a pure re-indexing:
    the pairing tuple is unchanged.
    """
    return Diagram._trusted(0, d.src + d.dst, d.pairing)


def embed_pairing(m: int, n: int, pairing: tuple[int, ...]) -> tuple[int, ...]:
    """Pairing of x (x) id^(n-m): identity strands appended on the right.

    With the bottom-reversed encoding the old index line lands as the
    contiguous block [n-m, n+m), so the embedding is a uniform shift.
    """
    if m > n:
        raise ValueError("cannot embed into fewer strands")
    shift = n - m
    out = [-1] * (2 * n)
    for b in range(2 * m):
        out[b + shift] = pairing[b] + shift
    for j in range(m, n):
        out[n - 1 - j] = n + j
        out[n + j] = n - 1 - j
    return tuple(out)


def closure_loops(n: int, pairing: tuple[int, ...]) -> int:
    """Loops in the Markov closure of an (n, n)-diagram (top point k joined
    to bottom point k around the right)."""
    size = 2 * n
    seen = [False] * size
    loops = 0
    for start in range(size):
        if seen[start]:
            continue
        loops += 1
        i = start
        while not seen[i]:
            seen[i] = True
            j = pairing[i]
            seen[j] = True
            i = size - 1 - j  # closure arcs also reverse the index line
    return loops


# ---------------------------------------------------------------------------
# The indexed basis and its level-independent tables
# ---------------------------------------------------------------------------

# The largest n with a TL_n product table: 1430^2 entries of 3 bytes (6 MB)
# at n = 8, and 4862^2 (71 MB) at n = 9.
PRODUCTS_MAX_N = 8


class DiagramBasis:
    """The monic (t, n)-diagrams in lexicographic order, a pairing -> position
    index, and the level-independent tables on them, built on first use.  The
    basis (0, 2n) is that of TL_n, its flat pairings read as (n, n)-diagrams;
    its cell form table is the meander matrix, which the trace reads, and
    only it has the product columns and, for n <= PRODUCTS_MAX_N, the
    product table.  The generator moves ``actions`` are one stacked pair
    read off the pairings, and the right moves of TL_n
    (``generator_columns``) are views of it.  The cell form table follows
    from one composed row by <f_k x, y> = <x, f_k y>, and the product
    columns from the identity's row by the left moves, a round at a time.
    """

    def __init__(self, t: int, n: int):
        self.t, self.n = t, n
        self.pairings = monic_pairings(t, n)
        self.index = {pairing: i for i, pairing in enumerate(self.pairings)}

    @cached_property
    def actions(self) -> tuple[np.ndarray, np.ndarray]:
        """f_k stacked on top of each diagram, k = 1 .. n-1: read-only
        (targets, loops) of shape (n-1, size), row k-1 the target position and
        loops per source, the target -1 where the through-degree drops.  Each
        entry is the cup-cap rule on the top points a = t+k-1 and a+1, with no
        composition: joined to each other, they close a loop on the same
        diagram; both through strands, the product is not monic; otherwise
        they are joined to each other and their partners likewise.  On TL_n,
        the basis (0, 2n), row n-1-i is D -> D f_i, row n-1+i D -> f_i D."""
        t, index, size = self.t, self.index, len(self.pairings)
        targets = np.empty((max(self.n - 1, 0), size), dtype=np.intp)
        loops = np.zeros_like(targets, dtype=np.int8)
        for move, a in enumerate(range(t, t + self.n - 1)):
            b, row = a + 1, []
            for i, p in enumerate(self.pairings):
                pa, pb = p[a], p[b]
                if pa == b:
                    row.append(i)
                    loops[move, i] = 1
                elif pa < t and pb < t:
                    row.append(-1)
                else:
                    q = list(p)
                    q[a], q[b], q[pa], q[pb] = b, a, pb, pa
                    row.append(index[tuple(q)])
            targets[move] = row
        targets.setflags(write=False)
        loops.setflags(write=False)
        return targets, loops

    def walk(self, start: int, hops: np.ndarray) -> list[list[tuple[int, int, int]]]:
        """The breadth-first walk from D_start along the stacked target
        array ``hops`` (move, source), such as rows of ``actions``: round r
        holds one step (source, move, diagram) per diagram first reached in
        r moves, its source in round r - 1.  A move with a loop returns its
        source, so the steps stay loop-free.  Raises ``ArithmeticError``
        when the walk misses a diagram."""
        hops, reached = hops.tolist(), [False] * len(self.pairings)
        reached[start] = True
        rounds, frontier = [], [start]
        while frontier:
            steps = []
            for i in frontier:
                for move, targets in enumerate(hops):
                    k = targets[i]
                    if k >= 0 and not reached[k]:
                        reached[k] = True
                        steps.append((i, move, k))
            if steps:
                rounds.append(steps)
            frontier = [k for _, _, k in steps]
        if not all(reached):
            raise ArithmeticError(
                f"the generator walk reached {sum(reached)} of {len(reached)} diagrams"
                f" of ({self.t}, {self.n})"
            )
        return rounds

    @cached_property
    def cell_exponents(self) -> np.ndarray:
        """exponents[i, j] = k when the cell form pairs D_i and D_j to
        delta^k, or -1 when the pairing vanishes; symmetric.  At t = 0 it is
        the meander matrix M, and tr(D_i D_j) = delta^(M[star i, j] - n/2) on
        TL_(n/2): the trace table is M with its rows relabelled by star, whose
        fixed point is the identity, so M's identity column is the closure
        loop count of each diagram.

        Only row 0 is composed.  Every f_k is self-adjoint for the form,
        <f_k D_i, D_j> = <D_i, f_k D_j>, so when f_k D_i = D_i' (no loop) row
        i' is row i read at the targets of f_k plus its loops; a breadth-first
        walk of these moves from D_0 reaches every diagram of the cell."""
        t, n, basis = self.t, self.n, self.pairings
        size = len(basis)
        out = np.full((size, size), -1, dtype=np.int16)
        if size:
            ident, first = identity_pairing(t), star_pairing(t + n, basis[0])
            for j, p in enumerate(basis):
                pairing, loops = compose_pairings(t, n, t, p, first)
                if pairing == ident:
                    out[0, j] = loops
            targets, loops = self.actions
            for steps in self.walk(0, targets):
                for i, move, k in steps:
                    tgt = targets[move]
                    moved = out[i][tgt]
                    out[k] = np.where((tgt >= 0) & (moved >= 0), moved + loops[move], -1)
        out.setflags(write=False)
        return out

    @cached_property
    def products(self) -> tuple[np.ndarray, np.ndarray]:
        """The product table of TL_n, n <= PRODUCTS_MAX_N: every column, read-only."""
        if self.n // 2 > PRODUCTS_MAX_N:
            raise ValueError(f"no product table on ({self.t}, {self.n})")
        return self.product_columns(range(len(self.pairings)))

    @property
    def generator_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """The product columns at the generators f_1 .. f_(n-1) of TL_n, at
        any n: the right moves D -> D f_i, read-only transposed views of rows
        n-2 .. 0 of ``actions``."""
        if self.t:
            raise ValueError(f"no product table on ({self.t}, {self.n})")
        return tuple(table[: self.n // 2 - 1][::-1].T for table in self.actions)

    def product_columns(self, cols) -> tuple[np.ndarray, np.ndarray]:
        """Columns ``cols`` of the product table of TL_n, at any n, read-only:
        targets[i, c] is the position of D_i D_cols[c] (D_i on top) and
        loops[i, c] its loops.

        Nothing is composed: the identity's row is ``cols``, the row of f_k D
        is f_k's left move read at the row of D plus its loops, one gather
        per round of the walk of the left moves."""
        if self.t:
            raise ValueError(f"no product table on ({self.t}, {self.n})")
        m, size = self.n // 2, len(self.pairings)
        hops, closed = (table[m:] for table in self.actions)
        targets = np.empty((size, len(cols)), dtype=np.int16 if size < 2**15 else np.intp)
        loops = np.empty((size, len(cols)), dtype=np.int8)
        start = self.index[identity_pairing(m)]
        targets[start], loops[start] = cols, 0
        for steps in self.walk(start, hops):
            i, move, k = np.array(steps).T
            row, move = targets[i], move[:, None]
            targets[k] = hops[move, row]
            loops[k] = loops[i] + closed[move, row]
        targets.setflags(write=False)
        loops.setflags(write=False)
        return targets, loops


# The one instance per (t, n); empty when the parity fails or t > n.
diagram_basis = lru_cache(maxsize=None)(DiagramBasis)


# ---------------------------------------------------------------------------
# Arc-nesting forests and hook coefficients
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Forest:
    """The poset of arcs of a flat diagram, ordered by nesting.

    ``parents[k]`` is the index of the innermost arc strictly enclosing arc
    k, or -1 for a root; ``sizes[k]`` is the size of the down-set of arc k
    (the arc and everything nested inside it).
    """

    arcs: tuple[tuple[int, int], ...]
    parents: tuple[int, ...]
    sizes: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.arcs)


def nesting_forest(d: Diagram) -> Forest:
    """Forest of arcs of a (0, m)-diagram under nesting order."""
    if d.src != 0:
        raise ValueError("nesting forests are defined for flat diagrams")
    arcs = sorted((i, j) for i, j in enumerate(d.pairing) if i < j)
    parents = [-1] * len(arcs)
    sizes = [1] * len(arcs)
    stack: list[int] = []  # arc indices whose interval is still open
    for k, (i, j) in enumerate(arcs):
        while stack and arcs[stack[-1]][1] < i:
            stack.pop()
        if stack:
            parents[k] = stack[-1]
        stack.append(k)
    for k in range(len(arcs) - 1, -1, -1):
        if parents[k] >= 0:
            sizes[parents[k]] += sizes[k]
    return Forest(tuple(arcs), tuple(parents), tuple(sizes))


def _times_ones(poly: list[int], m: int) -> list[int]:
    """poly * (1 + x + ... + x^(m-1))."""
    out = [0] * (len(poly) + m - 1)
    for i, c in enumerate(poly):
        for j in range(i, i + m):
            out[j] += c
    return out


def hook_poly(forest: Forest) -> tuple[int, list[int]]:
    """The hook quotient [|F|]! / prod_a [|F_<=a|] as a pair (s, coeffs),
    meaning q^s * sum_k coeffs[k] q^(2k).

    With [m] = q^(1-m) (1 + q^2 + ... + q^(2m-2)) both sides are a power of q
    times an integer polynomial in q^2; ``poly_divexact`` raises
    ``ArithmeticError`` if the quotient is not one (an invariant violation).
    """
    num, den = [1], [1]
    for j, s in enumerate(forest.sizes, 1):
        num, den = _times_ones(num, j), _times_ones(den, s)
    return sum(forest.sizes) - len(forest) * (len(forest) + 1) // 2, poly_divexact(num, den)
