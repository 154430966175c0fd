"""Spans around the public entry points of ``nikmop``, recorded from the
benchmark's side by rebinding module attributes, and the layer table
derived from them.

A span is ``[name, start, end, parent, trace_id]``: ``parent`` is the
position of the enclosing span (-1 at the root) and ``trace_id`` names the
index being worked on, inherited from the parent when the call itself has
none.  Spans stay in memory until the repetition ends.
"""
from __future__ import annotations

import math
import statistics
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = {}
        self._stack = []

    def add(self, name: str, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    @contextmanager
    def span(self, name: str, trace_id=None):
        parent = self._stack[-1] if self._stack else -1
        if trace_id is None and parent >= 0:
            trace_id = self.spans[parent][4]
        pos = len(self.spans)
        rec = [name, time.perf_counter(), None, parent, trace_id]
        self.spans.append(rec)
        self._stack.append(pos)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, trace_id=None, count=None):
        """``fn`` inside a span; ``trace_id(args)`` picks the index the
        call works on and ``count(tracer, args, result)`` records counts
        at the same boundary."""

        def traced(*args, **kwargs):
            with self.span(name, trace_id(args) if trace_id else None):
                result = fn(*args, **kwargs)
            if count is not None:
                count(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def dump(self) -> list:
        return [
            [name, start, end, parent, None if tid is None else str(tid)]
            for name, start, end, parent, tid in self.spans
        ]


def _index_of(arg):
    return getattr(arg, "index", None)


def _count_s_hat(tracer, args, result):
    gen = args[0].generators[args[1]]
    tracer.add("measures.s_hat.terms", len(gen.nodes) + len(gen.atoms))


def _count_solve(tracer, args, sol):
    tracer.add("mop.nullspace_fallbacks", int(sol.used_nullspace))
    if sol.pivot_ratio > 0:
        log10 = math.log10(sol.pivot_ratio)
        low = tracer.counters.get("mop.min_pivot_log10", 0.0)
        tracer.counters["mop.min_pivot_log10"] = min(low, log10)


def _count_extract(tracer, args, zero_set):
    tracer.add("mop.zeros", len(zero_set.zeros))


def _count_equilibrium(tracer, args, sol):
    tracer.add("equilibrium.iterations", sol.iterations)
    tracer.counters["equilibrium.residual"] = max(
        tracer.counters.get("equilibrium.residual", 0.0), sol.residual
    )
    cells = sum(grid.cells for grid in sol.grids.values())
    tracer.counters["equilibrium.cells"] = max(
        tracer.counters.get("equilibrium.cells", 0), cells
    )


ASYMPTOTICS = (
    "ratio_harness",
    "kappa_ratio_harness",
    "boundary_product_harness",
    "epsilon_ratio_check",
    "telescoping_check",
    "periodic_product_harness",
)


def install(tracer: Tracer, layers: bool) -> None:
    """Rebind the entry points to traced wrappers.  Without ``layers``
    only the pair construction is timed, which the untraced repetitions
    need for ``setup_s``.  Callers that imported a name directly are
    rebound in their own module."""
    from nikmop import asymptotics, cli, measures, mop

    cli.build_pair = tracer.wrap("cli.build_pair", cli.build_pair)
    if not layers:
        return

    def rebind(modules, attr, name, **kw):
        traced = tracer.wrap(name, getattr(modules[0], attr), **kw)
        for module in modules:
            setattr(module, attr, traced)

    rebind((measures, cli), "build_gauss_rule", "measures.build_gauss_rule")
    rebind((measures,), "_chain_density", "measures.density")
    rebind((measures.NikishinSystem,), "s_hat", "measures.s_hat",
           count=_count_s_hat)
    rebind((mop,), "assemble_moment_system", "mop.assemble_moment_system",
           trace_id=lambda a: a[1])
    rebind((mop,), "solve_mop", "mop.solve_mop", trace_id=lambda a: a[1],
           count=_count_solve)
    rebind((mop,), "extract_Q", "mop.extract_Q",
           trace_id=lambda a: _index_of(a[0]), count=_count_extract)
    rebind((mop.MopSolution,), "form", "mop.form",
           trace_id=lambda a: _index_of(a[0]))
    rebind((cli, asymptotics), "compute_varying_data",
           "mop.compute_varying_data", trace_id=lambda a: _index_of(a[0]))
    rebind((cli,), "solve_equilibrium", "equilibrium.solve_equilibrium",
           count=_count_equilibrium)
    for name in ASYMPTOTICS:
        rebind((cli,), name, f"asymptotics.{name}")
    rebind((cli,), "check_zero_counts", "diagnostics.check_zero_counts",
           trace_id=lambda a: _index_of(a[0]))
    rebind((cli,), "check_interlacing", "diagnostics.check_interlacing")
    rebind((cli,), "_write_outputs", "reporting.write")


def cache_ratios() -> dict:
    from nikmop import mop

    out = {}
    for name in ("solve_cached", "extract_cached"):
        info = getattr(mop, name).cache_info()
        calls = info.hits + info.misses
        out[f"mop.{name}.hit_ratio"] = info.hits / calls if calls else 0.0
    return out


# Layer metrics reported by a traced run, in BENCHMARK.json order.  A
# ``.pct`` value is the span's inclusive time and a ``.self_pct`` value its
# self time, both as a percentage of the traced repetition's wall time; a
# layer a workload never enters reads 0.
INCLUSIVE = (
    "cli.build_pair",
    "measures.build_gauss_rule",
    "measures.density",
    "measures.s_hat",
    "mop.assemble_moment_system",
    "mop.extract_Q",
    "mop.compute_varying_data",
    "equilibrium.solve_equilibrium",
    "diagnostics.check_zero_counts",
    "diagnostics.check_interlacing",
    "reporting.write",
)
SELF = ("mop.solve_mop", "mop.extract_Q", "mop.form") + tuple(
    f"asymptotics.{name}" for name in ASYMPTOTICS
)
CALLS = (
    "cli.build_pair",
    "measures.build_gauss_rule",
    "measures.s_hat",
    "mop.solve_mop",
    "mop.extract_Q",
    "mop.form",
    "equilibrium.solve_equilibrium",
)
COUNTERS = (
    "measures.s_hat.terms",
    "mop.nullspace_fallbacks",
    "mop.min_pivot_log10",
    "mop.zeros",
    "equilibrium.iterations",
    "equilibrium.residual",
    "equilibrium.cells",
    "mop.solve_cached.hit_ratio",
    "mop.extract_cached.hit_ratio",
)


def layer_table(spans: list, counters: dict, wall: float) -> dict:
    """Per-layer shares and counts of one traced repetition.

    Self time is a span's duration minus its direct children's.  Inclusive
    time counts only the outermost span of a name, so a recursive layer
    (chain densities) is not counted twice.
    """
    inclusive, self_time, calls = {}, {}, {}
    children = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent] += end - start
    ancestors = []
    form_in_extract = 0
    for pos, (name, start, end, parent, _) in enumerate(spans):
        dur = end - start
        names = ancestors[parent] if parent >= 0 else frozenset()
        if name not in names:
            inclusive[name] = inclusive.get(name, 0.0) + dur
        self_time[name] = self_time.get(name, 0.0) + dur - children[pos]
        calls[name] = calls.get(name, 0) + 1
        if name == "mop.form" and "mop.extract_Q" in names:
            form_in_extract += 1
        ancestors.append(names | {name})

    out = {}
    for name in INCLUSIVE:
        out[f"{name}.pct"] = 100.0 * inclusive.get(name, 0.0) / wall
    for name in SELF:
        out[f"{name}.self_pct"] = 100.0 * self_time.get(name, 0.0) / wall
    for name in CALLS:
        out[f"{name}.calls"] = calls.get(name, 0)
    for name in COUNTERS:
        out[name] = counters.get(name, 0)
    zeros = counters.get("mop.zeros", 0)
    out["mop.form_evals_per_zero"] = form_in_extract / zeros if zeros else 0.0
    out["trace.spans"] = len(spans)
    return out


UNITS = {
    "mop.min_pivot_log10": "log10",
    "mop.form_evals_per_zero": "evals/zero",
    "mop.solve_cached.hit_ratio": "frac",
    "mop.extract_cached.hit_ratio": "frac",
    "equilibrium.residual": "1",
    "equilibrium.robin_err": "1",
    "trace.wall_s": "s",
    "trace.overhead_frac": "frac",
}


def unit(name: str) -> str:
    """Unit of a per-layer metric: shares are percentages, the rest counts
    unless listed in UNITS."""
    return UNITS.get(name, "%" if name.endswith("pct") else "count")


def median_table(tables: list) -> dict:
    return {k: statistics.median(t[k] for t in tables) for k in tables[0]}
