"""Dimension routes and named verification suites.

``routes_at`` is the one place that knows the routes to dim L_t(n) and
dim Q_n(l) (Gram ranks, alternating sums, recursion matrices, closed forms,
the ideal generated by E); ``REACH`` is the one place that knows how far in
n each costly route is run, for the CLI, the suites and library callers
alike; ``agree`` is the rule the routes must satisfy.  ``jw_checks`` and
``cell_rank_row`` are the Jones-Wenzl and cell-rank checks that the CLI
shares with the suites.

Each suite reruns one block of the headline claims by at least two
independent computational routes.  A suite is written as a generator of
checks; the runner ``_suite`` registers it in ``SUITES`` and builds its
machine-readable report, ``{"suite": name, "passed": bool, "checks":
[{"name", "pass", "detail"}], "elapsed_s": seconds}``, in one place.  The
CLI ``verify`` subcommand and the acceptance tests both drive these.
"""

from __future__ import annotations

import functools
import random
import time
from typing import Any, Callable, Iterator

from . import cellrep, clifford, combinatorics, diagram, quotientdim, tlalg
from .combinatorics import catalan, fibonacci, w_dim
from .exactnum import CycNum, ExactMatrix, cyclotomic_field, rank_by_columns


def _check(name: str, ok: bool, detail: str = "") -> dict[str, Any]:
    return {"name": name, "pass": bool(ok), "detail": detail}


# ---------------------------------------------------------------------------
# Dimension routes and shared checks (also drive the CLI)
# ---------------------------------------------------------------------------

# The largest n at which each costly route is run; past it the route is
# skipped (None) and never started.  "rank": the exact cell Gram rank;
# "sandwich": radical_split, hence the ideal route and the trace-form rank
# (the exact one below level - 1 too); "jw": E_{l-1}, counted by l - 1;
# "clifford": the Clifford suite, whose phi table takes 0.9 s and 41 MB at
# n = 8 but 35 s and 570 MB at n = 10 (2-core x86-64, Python 3.11).
REACH = {"rank": 12, "sandwich": 8, "jw": 8, "clifford": 8}


def routes_at(
    level: int, n: int, routes: tuple[str, ...]
) -> tuple[dict[str, dict[int, int] | None], dict[str, int | None]]:
    """Simple dimensions and dim Q_n(level) by each requested route.

    Returns ``(dims, dimq)``: ``dims[route]`` is ``{t: l_t(n)}`` over the
    quotient labels and ``dimq[route]`` is dim Q_n; either is None where the
    route does not reach (level, n), including where it raises ValueError.
    For rank, altsum and matrix, dimq is the sum of squares of the route's
    dims; "closed" has independent closed forms for both; "ideal" gives only
    dimq, as C(n) - dim<E>, for level - 1 <= n <= REACH["sandwich"].
    """
    labels = cellrep.quotient_labels(level, n)
    tables: dict[str, Callable[[], Any]] = {
        "rank": lambda: {t: cellrep.simple_dim_rank(t, n, level) for t in labels}
        if n <= REACH["rank"]
        else None,
        "altsum": lambda: {t: cellrep.simple_dim_altsum(t, n, level) for t in labels},
        "matrix": lambda: quotientdim.dims_by_matrix(level, n),
        "closed": lambda: quotientdim.simple_dims_closed(level, n),
        "ideal": lambda: None,
    }
    totals: dict[str, Callable[[], Any]] = {
        "closed": lambda: quotientdim.dim_q_closed(level, n),
        "ideal": lambda: catalan(n) - tlalg.ideal_dimension(level, n)
        if level - 1 <= n <= REACH["sandwich"]
        else None,
    }

    def reach(compute: Callable[[], Any]) -> Any:
        try:
            return compute()
        except ValueError:
            return None

    dims: dict[str, dict[int, int] | None] = {}
    dimq: dict[str, int | None] = {}
    for route in routes:
        if route not in tables:
            raise ValueError(f"unknown route {route!r}")
        table = reach(tables[route])
        dims[route] = None if table is None else {t: table[t] for t in labels}
        if route in totals:
            dimq[route] = reach(totals[route])
        else:
            dimq[route] = None if table is None else sum(v * v for v in dims[route].values())
    return dims, dimq


def agree(values: dict[str, Any]) -> bool:
    """True when all values that are not None are equal."""
    seen = [v for v in values.values() if v is not None]
    return all(v == seen[0] for v in seen)


def jw_checks(level: int) -> dict[str, bool]:
    """The defining properties of the Jones-Wenzl idempotent E_{level-1}."""
    n = level - 1
    e = tlalg.jones_wenzl(level).element
    gens = [tlalg.generator(n, i, level) for i in range(1, n)]
    one = cyclotomic_field(level).one
    return {
        "idempotent": e * e == e,
        "killed_by_generators": all((f * e).is_zero() and (e * f).is_zero() for f in gens),
        "identity_coefficient_one": e.coefficient(diagram.identity(n)) == one,
        "trace_zero": tlalg.jones_trace(e).is_zero(),
    }


def cell_rank_row(t: int, n: int, level: int) -> dict[str, Any]:
    """The cell Gram rank of W_t(n) against its second route: the
    alternating sum, or w(t, n) off the reflection domain (t = -1 mod level),
    where the cell is simple."""
    rank = cellrep.simple_dim_rank(t, n, level)
    row: dict[str, Any] = {"n": n, "t": t, "w": w_dim(t, n), "rank": rank}
    if t % level == level - 1:
        row["agree"] = rank == row["w"]
    else:
        row["altsum"] = cellrep.simple_dim_altsum(t, n, level)
        row["agree"] = rank == row["altsum"]
    return row


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

Checks = Iterator[dict[str, Any]]
SUITES: dict[str, Callable[..., dict[str, Any]]] = {}


def _suite(checks: Callable[..., Checks]) -> Callable[..., dict[str, Any]]:
    """The suite runner: registers ``<name>_suite`` in ``SUITES`` as
    ``name``, with the signature of its check generator, and builds its
    report.  A report passes when it has at least one check and every check
    passes."""
    name = checks.__name__.removesuffix("_suite")

    @functools.wraps(checks)
    def run(*args: Any, **kwargs: Any) -> dict[str, Any]:
        started = time.perf_counter()
        done = list(checks(*args, **kwargs))
        return {
            "suite": name,
            "passed": bool(done) and all(c["pass"] for c in done),
            "checks": done,
            "elapsed_s": round(time.perf_counter() - started, 3),
        }

    SUITES[name] = run
    return run


@_suite
def catalan_suite(order: int = 12) -> Checks:
    """Diagram counts vs closed forms, plus the generating-function block."""
    ok = True
    bad = ""
    for total in range(0, 17, 2):
        for t in range(total % 2, total + 1, 2):
            k = (total - t) // 2
            counted = len(diagram.diagram_basis(t, total).pairings)
            if not (counted == combinatorics.w_recursive(t, k) == combinatorics.F_closed(t, k)):
                ok = False
                bad = f"(t={t}, k={k})"
    yield _check("enumeration = recursion = closed form", ok, bad or "all t+2k <= 16")
    ok = all(
        combinatorics.F_closed(t, k + 1)
        == combinatorics.F_closed(t - 1, k + 1) + combinatorics.F_closed(t + 1, k)
        for t in range(31)
        for k in range(31)
    )
    yield _check("binomial lattice recursion", ok, "0 <= t,k <= 30")
    ok = True
    try:
        for t in range(61):
            for k in range(61):
                combinatorics.F_closed(t, k)
    except ArithmeticError:
        ok = False
    yield _check("closed form integrality", ok, "0 <= t,k <= 60")
    ok = all(
        combinatorics.catalan(n) == combinatorics.catalan_by_convolution(n)
        for n in range(21)
    )
    yield _check("catalan closed form = convolution", ok, "n <= 20")
    series = combinatorics.series_identities(order)
    for name, passed in series.items():
        yield _check(f"series: {name}", passed, f"order {order}")
    yield _check(
        "two-step cell recursion",
        combinatorics.two_step_recursion_check(16, 16),
        "t, n <= 16",
    )


@_suite
def jw_suite(levels: tuple[int, ...] = (3, 4, 5, 6, 7, 8)) -> Checks:
    """Closed-formula Jones-Wenzl idempotents against all their defining
    properties and the recursion oracle."""
    for level in levels:
        props = all(jw_checks(level).values())
        yield _check(f"level {level}: idempotent properties", props)
        yield _check(
            f"level {level}: matches recursion oracle",
            tlalg.jones_wenzl(level).element == tlalg.jones_wenzl_by_recursion(level),
        )
    if 3 in levels:
        e2 = tlalg.jones_wenzl(3).element
        expected = tlalg.TLElement.one(2, 3) - tlalg.generator(2, 1, 3)
        yield _check("level 3: E_2 = 1 - f_1 verbatim", e2 == expected)
    if 4 in levels:
        f = cyclotomic_field(4)
        f1, f2 = tlalg.generator(3, 1, 4), tlalg.generator(3, 2, 4)
        expected = (
            tlalg.TLElement.one(3, 4) + f1 * f2 + f2 * f1 - f.delta * (f1 + f2)
        )
        yield _check(
            "level 4: E_3 = 1 + f1f2 + f2f1 - sqrt(2)(f1+f2) verbatim",
            tlalg.jones_wenzl(4).element == expected,
        )


@_suite
def ising_suite(max_n: int = 12) -> Checks:
    """Level-4 simple dimensions are the power-of-two pattern and the
    quotient dimension is 2^(n-1), by Gram ranks."""
    for n in range(3, max_n + 1):
        # The closed route is the pattern l_t = 2^(n/2-1) or 2^((n-1)/2), dim Q_n = 2^(n-1).
        dims, dimq = routes_at(4, n, ("rank", "altsum", "closed"))
        ok = agree(dims) and agree(dimq)
        shown = dims["rank"] if dims["rank"] is not None else dims["altsum"]
        detail = ", ".join(f"l_{t}={v}" for t, v in sorted(shown.items()))
        yield _check(f"n={n}: dims and sum of squares", ok, detail)


@_suite
def clifford_suite(max_n: int = 8, seed: int = 0) -> Checks:
    """The level-4 homomorphism onto the even Clifford algebra."""
    field = cyclotomic_field(4)
    rng = random.Random(seed or 0xC11F)
    for n in range(3, min(max_n, REACH["clifford"]) + 1):
        fs = [clifford.phi_generator(n, j) for j in range(1, n)]
        rel = all(f * f == field.delta * f for f in fs)
        rel = rel and all(
            fs[i] * fs[i + 1] * fs[i] == fs[i] and fs[i + 1] * fs[i] * fs[i + 1] == fs[i + 1]
            for i in range(n - 2)
        )
        rel = rel and all(
            fs[i] * fs[j] == fs[j] * fs[i]
            for i in range(n - 1)
            for j in range(i + 2, n - 1)
        )
        yield _check(f"n={n}: generator images satisfy the relations", rel)
        ej = tlalg.embedded_jones_wenzl(4, n)
        yield _check(f"n={n}: phi(E_3 embedded) = 0", clifford.phi(ej).is_zero())
        basis = diagram.tl_basis(n)
        exhaustive = n <= 6
        if exhaustive:
            pairs = [(a, b) for a in basis for b in basis]
        else:
            pairs = [
                (basis[rng.randrange(len(basis))], basis[rng.randrange(len(basis))])
                for _ in range(200)
            ]
        ok = True
        for a, b in pairs:
            x = tlalg.TLElement.from_diagram(a, 4) * ej * tlalg.TLElement.from_diagram(b, 4)
            if not clifford.phi(x).is_zero():
                ok = False
                break
        scope = "all pairs" if exhaustive else "200 sampled pairs"
        yield _check(f"n={n}: phi(a E b) = 0 ({scope})", ok)
        dim = clifford.image_dimension(n)
        yield _check(f"n={n}: image dimension = 2^(n-1)", dim == 2 ** (n - 1), f"dim={dim}")
        ok = all(
            tlalg.jones_trace(tlalg.TLElement.from_diagram(d, 4))
            == clifford.constant_term_trace(clifford.phi(tlalg.TLElement.from_diagram(d, 4)))
            for d in basis
        )
        yield _check(f"n={n}: trace correspondence on the diagram basis", ok)
        ok = True
        for _ in range(100):
            a = basis[rng.randrange(len(basis))]
            b = basis[rng.randrange(len(basis))]
            xa = tlalg.TLElement.from_diagram(a, 4)
            xb = tlalg.TLElement.from_diagram(b, 4)
            if clifford.phi(xa * xb) != clifford.phi(xa) * clifford.phi(xb):
                ok = False
                break
        yield _check(f"n={n}: homomorphism property on 100 random pairs", ok)
        rep = clifford.so_commutator_report(n)
        yield _check(
            f"n={n}: so(n) commutators",
            rep["omega_is_gamma_pair"] and rep["commutator_relations"],
        )


@_suite
def fibonacci_suite(max_n: int = 12) -> Checks:
    """Level 5: dim Q_n = F_{2n-1} by every enabled route, plus the
    matrix-power bridge identities."""
    for n in range(4, max_n + 1):
        _, dimq = routes_at(5, n, ("rank", "altsum", "matrix", "closed", "ideal"))
        want = fibonacci(2 * n - 1)
        ok = all(v == want for v in dimq.values() if v is not None)
        yield _check(
            f"n={n}: dim Q_n(5) = F_{2*n-1} by all routes",
            ok,
            f"want {want}, got {dimq}",
        )
    if max_n < 4:  # the bridge backs the dim Q_n checks; alone it checks none
        return
    ok = True
    for n in range(1, 16):
        a, b = quotientdim.fibonacci_bridge(n)
        if (a, b) != (fibonacci(2 * n), fibonacci(2 * n - 1)):
            ok = False
        if quotientdim.fibonacci_bridge(2 * n)[1] != a * a + b * b:
            ok = False
    yield _check("bridge identities a_n = F_2n, b_n = F_2n-1, a^2+b^2 = b_2n", ok, "n <= 15")


@_suite
def level6_suite(max_n: int = 10) -> Checks:
    """Level 6: the (3^m +- 1)/2 simple-dimension patterns and the quotient
    dimension (3^(n-1)+1)/2."""
    for n in range(2, max_n + 1):
        dims, dimq = routes_at(6, n, ("rank", "altsum", "matrix", "closed"))
        yield _check(
            f"n={n}: simple dimensions match the 3-power pattern",
            agree(dims),
            ", ".join(f"l_{t}={v}" for t, v in sorted(dims["closed"].items())),
        )
        want_q = (3 ** (n - 1) + 1) // 2
        ok = all(v == want_q for v in dimq.values() if v is not None)
        yield _check(f"n={n}: dim Q_n(6) = (3^(n-1)+1)/2", ok, f"want {want_q}, got {dimq}")


@_suite
def radical_suite(max_n: int = 8) -> Checks:
    """Rank of the trace form = dim TL_n - dim<E> = sum of squared simple
    dimensions; nondegenerate exactly when n <= level - 2."""
    max_n = min(max_n, REACH["sandwich"])
    for level in (4, 5, 6):
        for n in range(2, min(level - 1, max_n + 1)):
            rank = tlalg.trace_gram_rank(level, n)
            yield _check(
                f"level {level}, n={n}: trace form nondegenerate",
                rank == catalan(n),
                f"rank {rank} of {catalan(n)}",
            )
        for n in range(level - 1, max_n + 1):
            split = tlalg.radical_split(level, n)
            square_sum = sum(
                cellrep.simple_dim_rank(t, n, level) ** 2
                for t in cellrep.quotient_labels(level, n)
            )
            ok = (
                split.gram_rank == catalan(n) - split.ideal_dim == square_sum
                and split.gram_rank < catalan(n)
            )
            yield _check(
                f"level {level}, n={n}: rank(G) = C(n) - dim<E> = sum l_t^2",
                ok,
                f"rank={split.gram_rank}, ideal={split.ideal_dim}, squares={square_sum}",
            )


@_suite
def classification_suite(max_n: int = 10) -> Checks:
    """E maps W_t into the radical of the cell form exactly when t <= l-2."""
    for level in (4, 5, 6):
        ns = range(level - 1, max_n + 1)
        if not ns:
            continue
        ok = True
        bad = ""
        for n in ns:
            for t in cellrep.admissible_t(n):
                got = cellrep.annihilation_check(t, n, level)
                if got != (t <= level - 2):
                    ok = False
                    bad = f"(t={t}, n={n})"
        yield _check(f"level {level}: annihilation iff t <= {level - 2}", ok, bad or f"n <= {max_n}")


@_suite
def q3_suite(max_n: int = 8) -> Checks:
    """The level-3 quotient is one dimensional, by the ideal route."""
    for n in range(2, min(max_n, REACH["sandwich"]) + 1):
        dim = catalan(n) - tlalg.ideal_dimension(3, n)
        yield _check(f"n={n}: dim Q_n(3) = 1", dim == 1, f"got {dim}")


@_suite
def gram_suite(level: int = 5, max_n: int = 8) -> Checks:
    """Gram-rank simple dimensions against the alternating-sum route and the
    composition-factor bookkeeping, over all admissible labels."""
    for n in range(1, min(max_n, REACH["rank"]) + 1):
        ok = True
        detail = ""
        for t in cellrep.admissible_t(n):
            row = cell_rank_row(t, n, level)
            rank = row["rank"]
            if not row["agree"]:
                ok = False
                detail = f"t={t}: rank {rank} != " + ("altsum" if "altsum" in row else f"w {row['w']}")
            if "altsum" not in row:
                continue
            g = cellrep.g_apply(t, level)
            if g <= n and (n - g) % 2 == 0:
                lg = cellrep.simple_dim_rank(g, n, level)
                if w_dim(t, n) != rank + lg:
                    ok = False
                    detail = f"t={t}: w != l_t + l_g(t)"
            elif w_dim(t, n) != rank:
                ok = False
                detail = f"t={t}: w != l_t (simple cell)"
        yield _check(f"n={n}: rank = altsum and factor split", ok, detail)


@_suite
def properties_suite(seed: int = 0) -> Checks:
    """Randomized algebraic property checks with a fixed seed."""
    cases = 200
    rng = random.Random(seed or 0xA11CE)

    def random_cyc(level: int) -> CycNum:
        field = cyclotomic_field(level)
        return field.from_coeffs(
            rng.randint(1, 6), [rng.randint(-5, 5) for _ in range(field.degree)]
        )

    ok = True
    for _ in range(cases):
        level = rng.choice((3, 4, 5, 6, 7, 8))
        a, b, c = (random_cyc(level) for _ in range(3))
        if (a + b) + c != a + (b + c) or a * (b + c) != a * b + a * c:
            ok = False
        if a and a * a.inverse() != cyclotomic_field(level).one:
            ok = False
        if (a * b) * c != a * (b * c):
            ok = False
    yield _check("field axioms", ok, f"{cases} cases")

    def random_diagram(src: int, dst: int) -> diagram.Diagram:
        # Any planar (src, dst)-diagram is a flat pairing re-read at the cut.
        options = diagram.diagram_basis(0, src + dst).pairings
        return diagram.Diagram(src, dst, options[rng.randrange(len(options))])

    ok = True
    for _ in range(cases):
        t = rng.choice((0, 1, 2, 3))
        m = max(t % 2, t + 2 * rng.randint(-1, 2))
        k = max(m % 2, m + 2 * rng.randint(-1, 1))
        n = k + 2 * rng.randint(0, 1)
        a = random_diagram(t, m)
        b = random_diagram(m, k)
        c = random_diagram(k, n)
        ab, l_ab = diagram.compose(a, b)
        left, l_left = diagram.compose(ab, c)
        bc, l_bc = diagram.compose(b, c)
        right, l_right = diagram.compose(a, bc)
        if left != right or l_ab + l_left != l_bc + l_right:
            ok = False
        sab, l_s = diagram.compose(diagram.star(b), diagram.star(a))
        if sab != diagram.star(ab) or l_s != l_ab:
            ok = False
    yield _check("diagram composition associativity, loop additivity, star anti-map", ok, f"{cases} cases")

    ok = True
    for _ in range(cases):
        n = rng.choice((2, 3, 4))
        level = rng.choice((3, 4, 5, 6))
        basis = diagram.tl_basis(n)

        def rand_el():
            x = tlalg.TLElement.zero(n, level)
            for d in basis:
                if rng.random() < 0.5:
                    x = x + tlalg.TLElement.from_diagram(d, level).scale(rng.randint(-2, 2))
            return x

        x, y, z = rand_el(), rand_el(), rand_el()
        if (x * y) * z != x * (y * z):
            ok = False
        if tlalg.jones_trace(x * y) != tlalg.jones_trace(y * x):
            ok = False
    yield _check("TL product associativity and trace symmetry", ok, f"{cases} cases")

    ok = True
    field4 = cyclotomic_field(4)
    for _ in range(cases):
        n = rng.choice((2, 3, 4, 5))

        def rand_blade():
            x = clifford.BladeElement.zero(n)
            for _ in range(3):
                mask = rng.randrange(1 << n)
                x = x + clifford.BladeElement(n, {mask: field4.from_int(rng.randint(-3, 3))})
            return x

        a, b, c = rand_blade(), rand_blade(), rand_blade()
        if (a * b) * c != a * (b * c):
            ok = False
    yield _check("blade product associativity", ok, f"{cases} cases")

    ok = True
    for _ in range(40):
        level = rng.choice((3, 4, 5))
        field = cyclotomic_field(level)
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = ExactMatrix(
            field,
            [[random_cyc(level) if rng.random() < 0.7 else field.zero for _ in range(cols)] for _ in range(rows)],
        )
        if m.rank() != rank_by_columns(m):
            ok = False
    yield _check("rank is pivot-order independent", ok, "two independent eliminations")
