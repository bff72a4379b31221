"""Per-layer spans around the public functions of each tlq module.

The tracer lives in the benchmark: it replaces functions and methods of the
already imported tlq modules with timing wrappers and changes no file under
``src/``.  Self time is computed with a stack (a span's duration minus the
time its child spans cover).  Statistics are aggregated in memory per span
name, never as one record per call, because the algebra workload makes more
than a million leaf calls.
"""

from __future__ import annotations

import importlib
import sys
import time
import types

# (span name, owner as "module" or "module.Class", attribute names that hold
# the same function object).  Aliases such as ``CycNum.__rmul__ = __mul__``
# share one span.  Owners are resolved on install, so that the span names can
# be read without importing tlq.
PLAIN_SPANS = (
    ("diagram.compose_pairings", "diagram", ("compose_pairings",)),
    ("diagram.closure_loops", "diagram", ("closure_loops",)),
    ("diagram.Diagram.validate", "diagram.Diagram", ("__post_init__",)),
    ("exactnum.CycNum.mul", "exactnum.CycNum", ("__mul__", "__rmul__")),
    ("exactnum.CycNum.add", "exactnum.CycNum", ("__add__", "__radd__")),
    ("exactnum.CycNum.inverse", "exactnum.CycNum", ("inverse",)),
    ("exactnum.ExactMatrix.rank", "exactnum.ExactMatrix", ("rank",)),
    ("intlinalg.modp_rank_with_pivots", "_intlinalg", ("modp_rank_with_pivots",)),
    ("intlinalg.dixon_solve", "_intlinalg", ("dixon_solve",)),
    ("intlinalg.verify_product_identity", "_intlinalg", ("verify_product_identity",)),
    ("tlalg.TLElement.mul", "tlalg.TLElement", ("__mul__",)),
    ("tlalg.jones_trace", "tlalg", ("jones_trace",)),
    ("tlalg.ideal_dimension", "tlalg", ("ideal_dimension",)),
    ("cellrep.simple_dim_rank", "cellrep", ("simple_dim_rank",)),
)
GFP_SPANS = ("intlinalg.gfp_fresh", "intlinalg.gfp_incremental")
# Spans that try primes; their retries are the primes tried beyond the first.
PRIME_SPANS = ("intlinalg.certified_rank", "tlalg.radical_split")
SPAN_NAMES = tuple(s[0] for s in PLAIN_SPANS) + GFP_SPANS + PRIME_SPANS
# Exact counts: a difference between two runs of one seed is a cache leak
# or nondeterminism, never noise.
COUNT_STATS = ("calls", "rows_in", "pivots")
COUNTERS = ("intlinalg.primes_tried", "intlinalg.retries", "intlinalg.certified_rank.lifted")


class Tracer:
    """Installs spans into the tlq modules and aggregates their statistics."""

    def __init__(self):
        self.stats: dict[str, dict[str, float]] = {
            name: {"calls": 0, "self_s": 0.0} for name in SPAN_NAMES
        }
        for name in GFP_SPANS:
            self.stats[name].update(rows_in=0, pivots=0)
        self.counters = dict.fromkeys(COUNTERS, 0)
        # One child-time accumulator per open span; index 0 is the root.
        self._stack: list[list[float]] = [[0.0]]
        self._originals: list[object] = []
        self._start = 0.0
        self.wall_s = 0.0

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        for name, path, attrs in PLAIN_SPANS:
            owner = _resolve(path)
            self._replace(owner, attrs, self._span(name, getattr(owner, attrs[0])))
        echelon = _resolve("_intlinalg.ModpEchelon")
        intlinalg, tlalg = _resolve("_intlinalg"), _resolve("tlalg")
        self._replace(echelon, ("add_rows",), self._gfp_span(echelon.add_rows))
        self._replace(intlinalg, ("working_primes",),
                      self._prime_counter(intlinalg.working_primes))
        self._replace(intlinalg, ("certified_rank",),
                      self._prime_span("intlinalg.certified_rank", intlinalg.certified_rank))
        self._replace(tlalg, ("radical_split",),
                      self._prime_span("tlalg.radical_split", tlalg.radical_split))
        self._check_no_stale_sites()

    def _replace(self, owner, attrs, wrapper) -> None:
        orig = getattr(owner, attrs[0])
        for attr in attrs:
            if owner.__dict__.get(attr) is not orig:
                raise RuntimeError(f"{owner.__name__}.{attr} is not an alias of {attrs[0]}")
            setattr(owner, attr, wrapper)
        if isinstance(owner, types.ModuleType):
            # Rebind every other module that imported the function by name.
            for mod in _tlq_modules():
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
        self._originals.append(orig)

    def _check_no_stale_sites(self) -> None:
        """Fail if any tlq module or class still reaches an unwrapped original."""
        originals = {id(o) for o in self._originals}
        for mod in _tlq_modules():
            for key, value in vars(mod).items():
                if id(value) in originals:
                    raise RuntimeError(f"{mod.__name__}.{key} escaped the tracer")
                if isinstance(value, type) and value.__module__ == mod.__name__:
                    for attr, member in vars(value).items():
                        if id(member) in originals:
                            raise RuntimeError(f"{value.__name__}.{attr} escaped the tracer")

    # -- spans ---------------------------------------------------------------

    def _span(self, name: str, fn):
        stat = self.stats[name]

        def wrapper(*args, **kwargs):
            return self._timed(stat, fn, args, kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _timed(self, stat: dict, fn, args, kwargs):
        stack = self._stack
        frame = [0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            stack[-1][0] += elapsed
            stat["calls"] += 1
            stat["self_s"] += elapsed - frame[0]

    def _gfp_span(self, fn):
        """``ModpEchelon.add_rows``, split by whether the echelon was empty.

        ``add_rows`` calls itself on chunks of an oversized batch; only the
        outermost call counts, so a batch's rows are counted once.
        """
        depth = [0]

        def add_rows(ech, batch, *args, **kwargs):
            if depth[0]:
                return fn(ech, batch, *args, **kwargs)
            rank_before = ech.rank
            stat = self.stats[GFP_SPANS[0] if rank_before == 0 else GFP_SPANS[1]]
            depth[0] += 1
            try:
                return self._timed(stat, fn, (ech, batch) + args, kwargs)
            finally:
                depth[0] -= 1
                stat["rows_in"] += len(batch)
                stat["pivots"] += ech.rank - rank_before

        add_rows.__wrapped__ = fn
        return add_rows

    def _prime_counter(self, fn):
        # A generator function: calling it does no work, so it is counted,
        # not timed.  Each call yields the one prime an attempt uses.
        counters = self.counters

        def working_primes(*args, **kwargs):
            counters["intlinalg.primes_tried"] += 1
            return fn(*args, **kwargs)

        working_primes.__wrapped__ = fn
        return working_primes

    def _prime_span(self, name: str, fn):
        stat = self.stats[name]
        counters = self.counters
        dixon = self.stats["intlinalg.dixon_solve"]

        def wrapper(*args, **kwargs):
            primes_before = counters["intlinalg.primes_tried"]
            dixon_before = dixon["calls"]
            try:
                return self._timed(stat, fn, args, kwargs)
            finally:
                tried = counters["intlinalg.primes_tried"] - primes_before
                counters["intlinalg.retries"] += max(0, tried - 1)
                if name == "intlinalg.certified_rank" and dixon["calls"] > dixon_before:
                    counters["intlinalg.certified_rank.lifted"] += 1

        wrapper.__wrapped__ = fn
        return wrapper

    # -- the traced region -------------------------------------------------

    def start(self) -> None:
        self._stack[0][0] = 0.0
        self._start = time.perf_counter()

    def stop(self) -> None:
        self.wall_s = time.perf_counter() - self._start
        if len(self._stack) != 1:
            raise RuntimeError("a span was left open")

    def report(self) -> dict:
        """Span statistics plus the unattributed remainder of the traced wall.

        The self times and the remainder must add up to the traced wall.
        """
        attributed = sum(s["self_s"] for s in self.stats.values())
        if abs(self._stack[0][0] - attributed) > 1e-6 * max(1.0, self.wall_s):
            raise RuntimeError("self times do not add up to the time the spans cover")
        unattributed = self.wall_s - attributed
        if min(s["self_s"] for s in self.stats.values()) < -1e-6 or unattributed < -1e-6:
            raise RuntimeError("negative self time: the span stack is broken")
        return {
            "wall_s": self.wall_s,
            "unattributed_s": unattributed,
            "spans": self.stats,
            "counters": self.counters,
        }


def _resolve(path: str):
    module, _, cls = path.partition(".")
    owner = importlib.import_module(f"tlq.{module}")
    return getattr(owner, cls) if cls else owner


def _tlq_modules() -> list[types.ModuleType]:
    return [
        mod for name, mod in list(sys.modules.items())
        if (name == "tlq" or name.startswith("tlq.")) and mod is not None
    ]
