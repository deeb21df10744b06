"""Span tracing installed from outside the program, and its per-layer rollup.

``Tracer.install()`` replaces every public module-level function of the layer
modules (and the oracles' ``elements`` methods) with a wrapper that records a
span: name, parent span, job id, start and end.  The wrapper is bound under
every name that refers to the original anywhere in ``onerel``, so calls
through imported names such as ``covers.solve_left`` or ``groupring.nullspace``
are traced too.  ``uninstall()`` puts the originals back, so untraced passes
run the program exactly as shipped.

Counters are read at the same boundaries from arguments and results.  Their
own cost sits in a ``trace.counters`` span so it is not charged to the layer
that called the traced function.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("intlinalg", "groupring", "covers", "oracles", "foxcalc", "hierarchy",
          "trapezoid", "graphs", "presentations", "cli", "bsverify", "magnus")
METHODS = {"oracles": ("elements",)}   # class methods traced as <module>.<name>

# Per-layer metrics reported by a traced run: calls and self time per pass.
SPAN_METRICS = (
    ("intlinalg.row_hnf_transform", ("self_ms", "calls")),
    ("intlinalg.solve_left", ("calls",)),
    ("intlinalg.snf_invariants", ("self_ms", "calls")),
    ("intlinalg.rref", ("self_ms", "calls")),
    ("intlinalg.nullspace", ("calls",)),
    ("groupring.engulfing_search_finite", ("self_ms", "calls")),
    ("covers.build_cover_complex", ("self_ms",)),
    ("covers.homology", ("self_ms",)),
    ("covers.generation_check", ("self_ms",)),
    ("oracles.elements", ("self_ms", "calls")),
    ("foxcalc.jacobian", ("self_ms", "calls")),
    ("foxcalc.resolution_complex", ("self_ms",)),
    ("hierarchy.build_hierarchy", ("self_ms",)),
    ("hierarchy.hnn_step", ("self_ms", "calls")),
    ("hierarchy.find_epimorphism", ("self_ms",)),
    ("trapezoid.find_staircase", ("self_ms", "calls")),
    ("trapezoid.certify_diagonal", ("self_ms",)),
    ("graphs.lift_cycle", ("self_ms", "calls")),
    ("presentations.load_presentation", ("self_ms",)),
    ("cli.main", ("self_ms",)),
    ("bsverify.qn_report", ("self_ms",)),
)
COUNT_METRICS = (
    ("intlinalg.max_entry_bits", "bits"),
    ("groupring.engulf_system_cells", "count"),
    ("groupring.witness_ratio", "ratio"),
    ("covers.d2_cells", "count"),
    ("covers.d2_nnz", "count"),
    ("oracles.elements_enumerated", "count"),
    ("foxcalc.derivative_cache_entries", "count"),
    ("hierarchy.window_levels", "count"),
    ("trapezoid.certificate_ratio", "ratio"),
    ("graphs.applicable_ratio", "ratio"),
    ("trace.unattributed_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
)


def _max_bits(rows):
    best = 0
    for row in rows:
        if row:
            best = max(best, max(row), -min(row))
    return best.bit_length()


def _count_d2(t, args, result):
    d2 = result.d2
    t.count["covers.d2_cells"] += len(d2) * (len(d2[0]) if d2 else 0)
    t.count["covers.d2_nnz"] += sum(len(row) - row.count(0) for row in d2)


def _count_bits(rows):
    def counter(t, args, result):
        t.peak["intlinalg.max_entry_bits"] = max(
            t.peak["intlinalg.max_entry_bits"], _max_bits(rows(args, result)))
    return counter


def _count_engulf(t, args, result):
    m = args[0]
    n = len(m.oracle.elements())
    t.count["groupring.engulf_system_cells"] += n * (n - len(m.terms))
    t.count["groupring.witnesses"] += result.status == "witness"


def _add(key, amount):
    def counter(t, args, result):
        t.count[key] += amount(args, result)
    return counter


COUNTERS = {
    "covers.build_cover_complex": _count_d2,
    "intlinalg.kernel_basis": _count_bits(lambda args, result: result),
    "intlinalg.solve_left": _count_bits(lambda args, result: [result or []]),
    "intlinalg.snf_invariants": _count_bits(lambda args, result: args[0]),
    "groupring.engulfing_search_finite": _count_engulf,
    "oracles.elements": _add("oracles.elements_enumerated",
                             lambda args, result: len(result)),
    "hierarchy.hnn_step": _add("hierarchy.window_levels",
                               lambda args, result: result.window[1] - result.window[0] + 1),
    "trapezoid.find_staircase": _add("trapezoid.certificates",
                                     lambda args, result: hasattr(result, "diag")),
    "graphs.lift_cycle": _add("graphs.applicable",
                              lambda args, result: hasattr(result, "cycle_walk")),
}


class Tracer:
    def __init__(self):
        self.spans = []          # [name, parent index, job, start, end]
        self.stack = []
        self.job = None
        self.suspended = False
        self.count = defaultdict(int)
        self.peak = defaultdict(int)
        self._patches = None     # (owner, attribute, original, wrapper)

    # -- installation --------------------------------------------------------

    def _targets(self):
        for layer in LAYERS:
            module = importlib.import_module(f"onerel.{layer}")
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == module.__name__):
                    yield f"{layer}.{attr}", value, None
            for cls in vars(module).values():
                if inspect.isclass(cls) and cls.__module__ == module.__name__:
                    for attr in METHODS.get(layer, ()):
                        if attr in vars(cls):
                            yield f"{layer}.{attr}", vars(cls)[attr], cls

    def install(self):
        if self._patches is None:
            wrappers, patches = {}, []
            for name, fn, cls in self._targets():
                wrappers[id(fn)] = (fn, self._wrap(name, fn))
                if cls is not None:
                    patches.append((cls, fn.__name__, fn, wrappers[id(fn)][1]))
            for module in [m for n, m in sys.modules.items()
                           if n == "onerel" or n.startswith("onerel.")]:
                for attr, value in vars(module).items():
                    if id(value) in wrappers and wrappers[id(value)][0] is value:
                        patches.append((module, attr, value, wrappers[id(value)][1]))
            self._patches = patches
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._patches or ():
            setattr(owner, attr, original)

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if tracer.suspended:
                return fn(*args, **kwargs)
            spans, stack = tracer.spans, tracer.stack
            record = [name, stack[-1] if stack else None, tracer.job, clock(), 0.0]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = clock()
                stack.pop()
            if counter is not None:
                tracer._run_counter(counter, args, result)
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    def _run_counter(self, counter, args, result):
        record = ["trace.counters", self.stack[-1] if self.stack else None,
                  self.job, time.perf_counter(), 0.0]
        self.spans.append(record)
        self.suspended = True
        try:
            counter(self, args, result)
        finally:
            self.suspended = False
            record[4] = time.perf_counter()

    # -- rollup --------------------------------------------------------------

    def rollup(self):
        """Totals per span name: calls, wall ms, self ms; plus root wall ms."""
        child_ms = defaultdict(float)
        for name, parent, _, start, end in self.spans:
            if parent is not None:
                child_ms[parent] += (end - start) * 1e3
        totals = defaultdict(lambda: {"calls": 0, "wall_ms": 0.0, "self_ms": 0.0})
        root_ms = 0.0
        for index, (name, parent, _, start, end) in enumerate(self.spans):
            wall = (end - start) * 1e3
            entry = totals[name]
            entry["calls"] += name != "trace.counters"
            entry["wall_ms"] += wall
            entry["self_ms"] += wall - child_ms[index]
            if parent is None:
                root_ms += wall
        return totals, root_ms

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, parent, job, start, end) in enumerate(self.spans):
                fh.write(json.dumps([index, parent, job, name,
                                     round(start * 1e3, 4), round(end * 1e3, 4)]) + "\n")


def layer_metrics(tracer, passes, traced_wall, untraced_wall, job_ms):
    """Per-layer metric values per traced pass."""
    totals, root_ms = tracer.rollup()
    out = {}
    for name, stats in SPAN_METRICS:
        for stat in stats:
            unit = "ms" if stat == "self_ms" else "count"
            out[f"{name}.{stat}"] = (totals[name][stat] / passes, unit)
    count, peak = tracer.count, tracer.peak
    foxcalc = sys.modules.get("onerel.foxcalc")
    engulfs = totals["groupring.engulfing_search_finite"]["calls"]
    stairs = totals["trapezoid.find_staircase"]["calls"]
    lifts = totals["graphs.lift_cycle"]["calls"]
    values = {
        "intlinalg.max_entry_bits": peak["intlinalg.max_entry_bits"],
        "groupring.engulf_system_cells": count["groupring.engulf_system_cells"] / passes,
        "groupring.witness_ratio": count["groupring.witnesses"] / engulfs if engulfs else 0.0,
        "covers.d2_cells": count["covers.d2_cells"] / passes,
        "covers.d2_nnz": count["covers.d2_nnz"] / passes,
        "oracles.elements_enumerated": count["oracles.elements_enumerated"] / passes,
        "foxcalc.derivative_cache_entries": len(getattr(foxcalc, "_DERIVATIVE_CACHE", ())),
        "hierarchy.window_levels": count["hierarchy.window_levels"] / passes,
        "trapezoid.certificate_ratio": count["trapezoid.certificates"] / stairs if stairs else 0.0,
        "graphs.applicable_ratio": count["graphs.applicable"] / lifts if lifts else 0.0,
        "trace.unattributed_ms": (job_ms - root_ms) / passes,
        "trace.overhead_ratio": traced_wall / untraced_wall,
    }
    for name, unit in COUNT_METRICS:
        out[name] = (values[name], unit)
    return out, totals
