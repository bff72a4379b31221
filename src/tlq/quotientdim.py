"""Dimension engine for the semisimple quotients Q_n(l): the tridiagonal
one-step recursion, the parity-split two-step matrices, closed forms for
l = 3, 4, 5, 6, and dim Q_n(l) as a quadratic form in the seed vectors.

All arithmetic is arbitrary-precision integer; matrix powers are iterated
multiplications, no eigendecompositions.
"""

from __future__ import annotations

from .combinatorics import fibonacci, w_dim

Matrix = list[list[int]]


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    rows, inner, cols = len(a), len(b), len(b[0])
    return [
        [sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
        for i in range(rows)
    ]


def _mat_vec(a: Matrix, v: list[int]) -> list[int]:
    return [sum(row[k] * v[k] for k in range(len(v))) for row in a]


def _mat_pow(a: Matrix, e: int) -> Matrix:
    n = len(a)
    out: Matrix = [[int(i == j) for j in range(n)] for i in range(n)]
    base = [row[:] for row in a]
    while e:
        if e & 1:
            out = _mat_mul(out, base)
        base = _mat_mul(base, base)
        e >>= 1
    return out


def recursion_matrix(kind: str, m: int) -> Matrix:
    """The m x m tridiagonal matrix with off-diagonal 1, interior diagonal 2
    and corner diagonal entries given by ``kind`` in {"11","22","12","21"}.
    """
    corners = {"11": (1, 1), "22": (2, 2), "12": (1, 2), "21": (2, 1)}
    if kind not in corners:
        raise ValueError(f"unknown matrix kind {kind!r}")
    lo, hi = corners[kind]
    if m < 1 or (m == 1 and lo != hi):
        raise ValueError(f"kind {kind} needs m >= 2")
    out = [[0] * m for _ in range(m)]
    for i in range(m):
        out[i][i] = 2
        if i + 1 < m:
            out[i][i + 1] = 1
            out[i + 1][i] = 1
    out[0][0] = lo
    out[m - 1][m - 1] = hi
    return out


def one_step_matrix(level: int) -> Matrix:
    """The (l-1) x (l-1) 0/1 tridiagonal matrix carrying the full simple
    dimension vector from n to n+1."""
    m = level - 1
    out = [[0] * m for _ in range(m)]
    for i in range(m - 1):
        out[i][i + 1] = 1
        out[i + 1][i] = 1
    return out


def one_step(level: int, values: list[int]) -> list[int]:
    """Apply the one-step recursion to the vector (l_0, ..., l_{l-2})."""
    if len(values) != level - 1:
        raise ValueError("vector has the wrong length")
    return _mat_vec(one_step_matrix(level), values)


def parity_labels(level: int, parity: int) -> tuple[int, ...]:
    """The through-strand labels of one parity class, in the stacking order
    of the two-step recursion vectors."""
    if level % 2 == 0:
        top = level - 2 if parity == 0 else level - 3
    else:
        top = level - 3 if parity == 0 else level - 2
    return tuple(range(parity, top + 1, 2))


def two_step(level: int) -> dict[int, Matrix]:
    """The parity-split squared recursion matrices, keyed by parity.

    Even levels use kinds ("11", "22") on sizes (l/2, l/2 - 1); odd levels
    use ("12", "21") on size (l-1)/2 for both parities.
    """
    if level < 4:
        raise ValueError("two-step matrices need level >= 4")
    if level % 2 == 0:
        return {
            0: recursion_matrix("11", level // 2),
            1: recursion_matrix("22", level // 2 - 1),
        }
    m = (level - 1) // 2
    return {0: recursion_matrix("12", m), 1: recursion_matrix("21", m)}


def seed_vectors(level: int) -> dict[int, list[int]]:
    """Initial condition vectors: cell dimensions at n = l-2 and n = l-3,
    stacked per parity class."""
    if level % 2 == 0:
        even_n, odd_n = level - 2, level - 3
    else:
        even_n, odd_n = level - 3, level - 2
    return {
        0: [w_dim(t, even_n) for t in parity_labels(level, 0)],
        1: [w_dim(t, odd_n) for t in parity_labels(level, 1)],
    }


def _vector_exponent(level: int, n: int) -> int:
    """Power of the two-step matrix carrying the seed vector to n."""
    if level % 2 == 0:
        base = level - 2 if n % 2 == 0 else level - 3
    else:
        base = level - 3 if n % 2 == 0 else level - 2
    if n < base:
        raise ValueError(f"n = {n} is below the seed row {base}")
    if (n - base) % 2:
        raise ValueError("parity mismatch against the seed row")
    return (n - base) // 2


def dims_by_matrix(level: int, n: int) -> dict[int, int]:
    """Simple dimensions {t: l_t(n)} of the quotient by the matrix-power
    route, for n at or above the seed rows (n >= l-3)."""
    if level < 4:
        raise ValueError("the matrix route needs level >= 4")
    parity = n % 2
    e = _vector_exponent(level, n)
    mat = two_step(level)[parity]
    vec = _mat_vec(_mat_pow(mat, e), seed_vectors(level)[parity])
    return dict(zip(parity_labels(level, parity), vec))


def dim_q(level: int, n: int) -> int:
    """dim Q_n(l) as the seed quadratic form w^T M^(2e) w: its exponent
    bookkeeping is independent of the sum of the squares of
    :func:`dims_by_matrix`, which it must equal."""
    parity = n % 2
    w = seed_vectors(level)[parity]
    m = _mat_pow(two_step(level)[parity], 2 * _vector_exponent(level, n))
    return sum(w[i] * m[i][j] * w[j] for i in range(len(w)) for j in range(len(w)))


def dim_q_closed(level: int, n: int) -> int:
    """Closed forms: 1 for l=3; 2^(n-1) for l=4; F_{2n-1} for l=5;
    (3^(n-1)+1)/2 for l=6 (n >= 2)."""
    if n < 1:
        raise ValueError("n must be positive")
    if level == 3:
        return 1
    if level == 4:
        return 2 ** (n - 1)
    if level == 5:
        return fibonacci(2 * n - 1)
    if level == 6:
        if n < 2:
            raise ValueError("the level-6 closed form needs n >= 2")
        return (3 ** (n - 1) + 1) // 2
    raise ValueError(f"no closed form at level {level}")


def simple_dims_closed(level: int, n: int) -> dict[int, int]:
    """Closed-form simple dimensions for l = 4, 5, 6 (n >= 1; n >= 2 at l = 5)."""
    lowest = 2 if level == 5 else 1
    if n < lowest:
        raise ValueError(f"the closed simple dimensions at level {level} need n >= {lowest}")
    if level == 4:
        if n % 2 == 0:
            return {0: 2 ** (n // 2 - 1), 2: 2 ** (n // 2 - 1)}
        return {1: 2 ** ((n - 1) // 2)}
    if level == 5:
        m = n // 2
        if n % 2 == 0:
            return {0: fibonacci(2 * m - 1), 2: fibonacci(2 * m)}
        return {1: fibonacci(2 * m + 1), 3: fibonacci(2 * m)}
    if level == 6:
        m = n // 2
        if n % 2 == 0:
            p = 3 ** (m - 1)
            return {0: (p + 1) // 2, 2: p, 4: (p - 1) // 2}
        p = 3**m
        return {1: (p + 1) // 2, 3: (p - 1) // 2}
    raise ValueError(f"no closed simple dimensions at level {level}")


def fibonacci_bridge(n: int) -> tuple[int, int]:
    """(a_n, b_n) from [[2,1],[1,1]]^n = [[a_n + b_n, a_n], [a_n, b_n]];
    a_n = F_{2n}, b_n = F_{2n-1}."""
    if n < 1:
        raise ValueError("n must be positive")
    m = _mat_pow([[2, 1], [1, 1]], n)
    a, b = m[0][1], m[1][1]
    if m[1][0] != a or m[0][0] != a + b:
        raise ArithmeticError("power does not have the bridge shape")
    return a, b
