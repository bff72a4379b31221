"""Named verification suites.

Each suite reruns one block of the headline claims by at least two
independent computational routes and returns a machine-readable report:
``{"suite": name, "passed": bool, "checks": [{"name", "pass", "detail"}]}``.
The CLI ``verify`` subcommand and the acceptance tests both drive these.
"""

from __future__ import annotations

import random
import time
from typing import Any, Callable

from . import cellrep, clifford, combinatorics, diagram, quotientdim, tlalg
from .combinatorics import catalan, fibonacci, w_dim
from .exactnum import CycNum, ExactMatrix, cyclotomic_field, rank_by_columns


def _report(suite: str, checks: list[dict[str, Any]], started: float) -> dict[str, Any]:
    return {
        "suite": suite,
        "passed": all(c["pass"] for c in checks),
        "checks": checks,
        "elapsed_s": round(time.perf_counter() - started, 3),
    }


def _check(name: str, ok: bool, detail: str = "") -> dict[str, Any]:
    return {"name": name, "pass": bool(ok), "detail": detail}


# ---------------------------------------------------------------------------
# Shared dimension-table plumbing (also drives the `dims` subcommand)
# ---------------------------------------------------------------------------


def simple_dims_by_routes(
    level: int, n: int, routes: tuple[str, ...], max_rank_n: int
) -> dict[int, dict[str, int | None]]:
    """{t: {route: value-or-None}} for the quotient labels at (level, n)."""
    out: dict[int, dict[str, int | None]] = {}
    matrix_dims: dict[int, int] | None = None
    if "matrix" in routes and level >= 4:
        try:
            matrix_dims = quotientdim.dims_by_matrix(level, n)
        except ValueError:
            matrix_dims = None
    closed_dims: dict[int, int] | None = None
    if "closed" in routes and level in (4, 5, 6):
        closed_dims = quotientdim.simple_dims_closed(level, n)
    for t in cellrep.quotient_labels(level, n):
        row: dict[str, int | None] = {}
        if "rank" in routes:
            row["rank"] = (
                cellrep.simple_dim_rank(t, n, level) if n <= max_rank_n else None
            )
        if "altsum" in routes:
            row["altsum"] = cellrep.simple_dim_altsum(t, n, level)
        if "matrix" in routes:
            row["matrix"] = matrix_dims.get(t) if matrix_dims is not None else None
        if "closed" in routes:
            row["closed"] = closed_dims.get(t) if closed_dims is not None else None
        out[t] = row
    return out


def dim_q_by_routes(
    level: int,
    n: int,
    routes: tuple[str, ...],
    max_rank_n: int,
    max_ideal_n: int = 8,
) -> dict[str, int | None]:
    """dim Q_n(level) per requested route (None when out of range)."""
    out: dict[str, int | None] = {}
    labels = cellrep.quotient_labels(level, n)
    if "rank" in routes:
        out["rank"] = (
            sum(cellrep.simple_dim_rank(t, n, level) ** 2 for t in labels)
            if n <= max_rank_n
            else None
        )
    if "altsum" in routes:
        out["altsum"] = sum(
            cellrep.simple_dim_altsum(t, n, level) ** 2 for t in labels
        )
    if "matrix" in routes:
        try:
            out["matrix"] = quotientdim.dim_q(level, n, "matrix")
        except ValueError:
            out["matrix"] = None
    if "closed" in routes:
        try:
            out["closed"] = quotientdim.dim_q_closed(level, n)
        except ValueError:
            out["closed"] = None
    if "ideal" in routes:
        out["ideal"] = (
            catalan(n) - tlalg.ideal_dimension(level, n)
            if level - 1 <= n <= max_ideal_n
            else None
        )
    return out


def _all_agree(values: dict[str, int | None]) -> bool:
    seen = [v for v in values.values() if v is not None]
    return all(v == seen[0] for v in seen) if seen else True


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------


def catalan_suite(order: int = 12, max_points: int = 16) -> dict[str, Any]:
    """Diagram counts vs closed forms, plus the generating-function block."""
    t0 = time.perf_counter()
    checks = []
    ok = True
    bad = ""
    for total in range(0, max_points + 1, 2):
        for t in range(total % 2, total + 1, 2):
            k = (total - t) // 2
            counted = len(diagram.diagram_basis(t, total).pairings)
            if not (counted == combinatorics.w_recursive(t, k) == combinatorics.F_closed(t, k)):
                ok = False
                bad = f"(t={t}, k={k})"
    checks.append(_check("enumeration = recursion = closed form", ok, bad or f"all t+2k <= {max_points}"))
    ok = all(
        combinatorics.F_closed(t, k + 1)
        == combinatorics.F_closed(t - 1, k + 1) + combinatorics.F_closed(t + 1, k)
        for t in range(31)
        for k in range(31)
    )
    checks.append(_check("binomial lattice recursion", ok, "0 <= t,k <= 30"))
    ok = True
    try:
        for t in range(61):
            for k in range(61):
                combinatorics.F_closed(t, k)
    except ArithmeticError:
        ok = False
    checks.append(_check("closed form integrality", ok, "0 <= t,k <= 60"))
    ok = all(
        combinatorics.catalan(n) == combinatorics.catalan_by_convolution(n)
        for n in range(21)
    )
    checks.append(_check("catalan closed form = convolution", ok, "n <= 20"))
    series = combinatorics.series_identities(order)
    for name, passed in series.items():
        checks.append(_check(f"series: {name}", passed, f"order {order}"))
    checks.append(
        _check(
            "two-step cell recursion",
            combinatorics.two_step_recursion_check(16, 16),
            "t, n <= 16",
        )
    )
    return _report("catalan", checks, t0)


def jw_suite(levels: tuple[int, ...] = (3, 4, 5, 6, 7, 8)) -> dict[str, Any]:
    """Closed-formula Jones-Wenzl idempotents against all their defining
    properties and the recursion oracle."""
    t0 = time.perf_counter()
    checks = []
    for level in levels:
        field = cyclotomic_field(level)
        n = level - 1
        e = tlalg.jones_wenzl(level).element
        one = tlalg.TLElement.one(n, level)
        props = e * e == e
        props = props and e.coefficient(diagram.identity(n)) == field.one
        for i in range(1, n):
            f = tlalg.generator(n, i, level)
            props = props and (f * e).is_zero() and (e * f).is_zero()
        props = props and tlalg.jones_trace(e).is_zero()
        checks.append(_check(f"level {level}: idempotent properties", props))
        checks.append(
            _check(
                f"level {level}: matches recursion oracle",
                e == tlalg.jones_wenzl_by_recursion(level),
            )
        )
    if 3 in levels:
        e2 = tlalg.jones_wenzl(3).element
        expected = tlalg.TLElement.one(2, 3) - tlalg.generator(2, 1, 3)
        checks.append(_check("level 3: E_2 = 1 - f_1 verbatim", e2 == expected))
    if 4 in levels:
        f = cyclotomic_field(4)
        f1, f2 = tlalg.generator(3, 1, 4), tlalg.generator(3, 2, 4)
        expected = (
            tlalg.TLElement.one(3, 4) + f1 * f2 + f2 * f1 - f.delta * (f1 + f2)
        )
        checks.append(
            _check(
                "level 4: E_3 = 1 + f1f2 + f2f1 - sqrt(2)(f1+f2) verbatim",
                tlalg.jones_wenzl(4).element == expected,
            )
        )
    return _report("jw", checks, t0)


def ising_suite(max_n: int = 12, max_rank_n: int = 12) -> dict[str, Any]:
    """Level-4 simple dimensions are the power-of-two pattern and the
    quotient dimension is 2^(n-1), by Gram ranks."""
    t0 = time.perf_counter()
    checks = []
    for n in range(3, max_n + 1):
        expected = quotientdim.simple_dims_closed(4, n)
        table = simple_dims_by_routes(4, n, ("rank", "altsum"), max_rank_n)
        ok = True
        for t, row in table.items():
            want = expected.get(t, 0)
            ok = ok and row["altsum"] == want
            if row["rank"] is not None:
                ok = ok and row["rank"] == want
        square_sum = sum(
            (row["rank"] if row["rank"] is not None else row["altsum"]) ** 2
            for row in table.values()
        )
        ok = ok and square_sum == 2 ** (n - 1)
        detail = ", ".join(
            f"l_{t}={row['rank'] if row['rank'] is not None else row['altsum']}"
            for t, row in sorted(table.items())
        )
        checks.append(_check(f"n={n}: dims and sum of squares", ok, detail))
    return _report("ising", checks, t0)


def clifford_suite(max_n: int = 8, seed: int = 0, full_pairs_n: int = 6) -> dict[str, Any]:
    """The level-4 homomorphism onto the even Clifford algebra."""
    t0 = time.perf_counter()
    checks = []
    field = cyclotomic_field(4)
    rng = random.Random(seed or 0xC11F)
    for n in range(3, max_n + 1):
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
        checks.append(_check(f"n={n}: generator images satisfy the relations", rel))
        ej = tlalg.embedded_jones_wenzl(4, n)
        checks.append(_check(f"n={n}: phi(E_3 embedded) = 0", clifford.phi(ej).is_zero()))
        basis = diagram.tl_basis(n)
        if n <= full_pairs_n:
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
        scope = "all pairs" if n <= full_pairs_n else "200 sampled pairs"
        checks.append(_check(f"n={n}: phi(a E b) = 0 ({scope})", ok))
        dim = clifford.image_dimension(n)
        checks.append(_check(f"n={n}: image dimension = 2^(n-1)", dim == 2 ** (n - 1), f"dim={dim}"))
        ok = all(
            tlalg.jones_trace(tlalg.TLElement.from_diagram(d, 4))
            == clifford.constant_term_trace(clifford.phi(tlalg.TLElement.from_diagram(d, 4)))
            for d in basis
        )
        checks.append(_check(f"n={n}: trace correspondence on the diagram basis", ok))
        ok = True
        for _ in range(100):
            a = basis[rng.randrange(len(basis))]
            b = basis[rng.randrange(len(basis))]
            xa = tlalg.TLElement.from_diagram(a, 4)
            xb = tlalg.TLElement.from_diagram(b, 4)
            if clifford.phi(xa * xb) != clifford.phi(xa) * clifford.phi(xb):
                ok = False
                break
        checks.append(_check(f"n={n}: homomorphism property on 100 random pairs", ok))
        rep = clifford.so_commutator_report(n)
        checks.append(
            _check(
                f"n={n}: so(n) commutators",
                rep["omega_is_gamma_pair"] and rep["commutator_relations"],
            )
        )
    return _report("clifford", checks, t0)


def fibonacci_suite(max_n: int = 12, bridge_n: int = 15, max_rank_n: int = 12) -> dict[str, Any]:
    """Level 5: dim Q_n = F_{2n-1} by every enabled route, plus the
    matrix-power bridge identities."""
    t0 = time.perf_counter()
    checks = []
    for n in range(4, max_n + 1):
        routes = dim_q_by_routes(5, n, ("rank", "altsum", "matrix", "closed", "ideal"), max_rank_n)
        want = fibonacci(2 * n - 1)
        ok = all(v == want for v in routes.values() if v is not None)
        checks.append(
            _check(
                f"n={n}: dim Q_n(5) = F_{2*n-1} by all routes",
                ok,
                f"want {want}, got {routes}",
            )
        )
    ok = True
    for n in range(1, bridge_n + 1):
        a, b = quotientdim.fibonacci_bridge(n)
        if (a, b) != (fibonacci(2 * n), fibonacci(2 * n - 1)):
            ok = False
        if quotientdim.fibonacci_bridge(2 * n)[1] != a * a + b * b:
            ok = False
    checks.append(_check("bridge identities a_n = F_2n, b_n = F_2n-1, a^2+b^2 = b_2n", ok, f"n <= {bridge_n}"))
    return _report("fibonacci", checks, t0)


def level6_suite(max_n: int = 10, max_rank_n: int = 10) -> dict[str, Any]:
    """Level 6: the (3^m +- 1)/2 simple-dimension patterns and the quotient
    dimension (3^(n-1)+1)/2."""
    t0 = time.perf_counter()
    checks = []
    for n in range(2, max_n + 1):
        expected = quotientdim.simple_dims_closed(6, n)
        table = simple_dims_by_routes(6, n, ("rank", "altsum", "matrix"), max_rank_n)
        ok = True
        for t, row in table.items():
            want = expected.get(t, 0)
            for v in row.values():
                if v is not None and v != want:
                    ok = False
        checks.append(
            _check(
                f"n={n}: simple dimensions match the 3-power pattern",
                ok,
                ", ".join(f"l_{t}={expected.get(t, 0)}" for t in sorted(table)),
            )
        )
        want_q = (3 ** (n - 1) + 1) // 2
        routes = dim_q_by_routes(6, n, ("rank", "altsum", "matrix", "closed"), max_rank_n)
        ok = all(v == want_q for v in routes.values() if v is not None)
        checks.append(_check(f"n={n}: dim Q_n(6) = (3^(n-1)+1)/2", ok, f"want {want_q}, got {routes}"))
    return _report("level6", checks, t0)


def radical_suite(levels: tuple[int, ...] = (4, 5, 6), max_n: int = 8) -> dict[str, Any]:
    """Rank of the trace form = dim TL_n - dim<E> = sum of squared simple
    dimensions; nondegenerate exactly when n <= level - 2."""
    t0 = time.perf_counter()
    checks = []
    for level in levels:
        for n in range(2, min(level - 1, max_n + 1)):
            rank = tlalg.trace_gram_rank(level, n)
            checks.append(
                _check(
                    f"level {level}, n={n}: trace form nondegenerate",
                    rank == catalan(n),
                    f"rank {rank} of {catalan(n)}",
                )
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
            checks.append(
                _check(
                    f"level {level}, n={n}: rank(G) = C(n) - dim<E> = sum l_t^2",
                    ok,
                    f"rank={split.gram_rank}, ideal={split.ideal_dim}, squares={square_sum}",
                )
            )
    return _report("radical", checks, t0)


def classification_suite(
    levels: tuple[int, ...] = (4, 5, 6), max_n: int = 10
) -> dict[str, Any]:
    """E maps W_t into the radical of the cell form exactly when t <= l-2."""
    t0 = time.perf_counter()
    checks = []
    for level in levels:
        ok = True
        bad = ""
        for n in range(level - 1, max_n + 1):
            for t in cellrep.admissible_t(n):
                got = cellrep.annihilation_check(t, n, level)
                if got != (t <= level - 2):
                    ok = False
                    bad = f"(t={t}, n={n})"
        checks.append(
            _check(f"level {level}: annihilation iff t <= {level - 2}", ok, bad or f"n <= {max_n}")
        )
    return _report("classification", checks, t0)


def q3_suite(max_n: int = 8) -> dict[str, Any]:
    """The level-3 quotient is one dimensional, by the ideal route."""
    t0 = time.perf_counter()
    checks = []
    for n in range(2, max_n + 1):
        dim = catalan(n) - tlalg.ideal_dimension(3, n)
        checks.append(_check(f"n={n}: dim Q_n(3) = 1", dim == 1, f"got {dim}"))
    return _report("q3", checks, t0)


def gram_suite(level: int = 5, max_n: int = 8) -> dict[str, Any]:
    """Gram-rank simple dimensions against the alternating-sum route and the
    composition-factor bookkeeping, over all admissible labels."""
    t0 = time.perf_counter()
    checks = []
    for n in range(1, max_n + 1):
        ok = True
        detail = ""
        for t in cellrep.admissible_t(n):
            rank = cellrep.simple_dim_rank(t, n, level)
            if t % level == level - 1:
                # Cells off the reflection domain are simple.
                if rank != w_dim(t, n):
                    ok = False
                    detail = f"t={t}: rank {rank} != w {w_dim(t, n)}"
                continue
            if rank != cellrep.simple_dim_altsum(t, n, level):
                ok = False
                detail = f"t={t}: rank {rank} != altsum"
            g = cellrep.g_apply(t, level)
            if g <= n and (n - g) % 2 == 0:
                lg = cellrep.simple_dim_rank(g, n, level)
                if w_dim(t, n) != rank + lg:
                    ok = False
                    detail = f"t={t}: w != l_t + l_g(t)"
            elif w_dim(t, n) != rank:
                ok = False
                detail = f"t={t}: w != l_t (simple cell)"
        checks.append(_check(f"n={n}: rank = altsum and factor split", ok, detail))
    return _report("gram", checks, t0)


def properties_suite(seed: int = 0, cases: int = 200) -> dict[str, Any]:
    """Randomized algebraic property checks with a fixed seed."""
    t0 = time.perf_counter()
    rng = random.Random(seed or 0xA11CE)
    checks = []

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
    checks.append(_check("field axioms", ok, f"{cases} cases"))

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
    checks.append(_check("diagram composition associativity, loop additivity, star anti-map", ok, f"{cases} cases"))

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
    checks.append(_check("TL product associativity and trace symmetry", ok, f"{cases} cases"))

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
    checks.append(_check("blade product associativity", ok, f"{cases} cases"))

    ok = True
    for _ in range(max(40, cases // 5)):
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
    checks.append(_check("rank is pivot-order independent", ok, "two independent eliminations"))
    return _report("properties", checks, t0)


SUITES: dict[str, Callable[..., dict[str, Any]]] = {
    "catalan": catalan_suite,
    "jw": jw_suite,
    "ising": ising_suite,
    "clifford": clifford_suite,
    "fibonacci": fibonacci_suite,
    "level6": level6_suite,
    "radical": radical_suite,
    "classification": classification_suite,
    "q3": q3_suite,
    "gram": gram_suite,
    "properties": properties_suite,
}
