"""Timing shims around ldpput's public functions, with nested spans.

The shims live in the benchmark, not in the library: each one replaces a
function object in every ldpput module namespace that holds it (so
``cli.bayes_optimal_risk`` and ``decision.bayes_optimal_risk`` are both
timed).  Spans are kept in memory and summarised once the ops are done.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from math import comb

# "module.function" -> extractor of a small record kept on the span.  The
# extractor runs after the span's end time is taken, so its cost is charged
# to the caller's span, never to the traced function itself.
TRACED = {
    "cli.main": None,
    "linalg.enumerate_basic_feasible": lambda a, k, r: (a[0], len(r)),
    "ldp_geometry.enumerate_polytope_vertices": lambda a, k, r: (a[0].size, len(r)),
    "ldp_geometry.extremal_channel": None,
    "simplex.solve_standard_lp": lambda a, k, r: len(a[0]) * len(a[2]),
    "decision.minimax_risk": None,
    "decision.bayes_optimal_risk": lambda a, k, r: a[2].num_outputs,
    "put_solver.put_by_vertex_enumeration": None,
    "put_solver.put_by_lp": None,
    "put_solver.put_transitive_closed_form": None,
    "put_solver.random_channel_audit": None,
    "put_solver.random_private_channel": None,
    "channels.compose": None,
    "groups.generate_group": lambda a, k, r: r.order,
    "groups.orbits": lambda a, k, r: len(a[0].carrier),
    "invariant.subset_orbits": None,
    "invariant.enumerate_invariant_vertices": None,
    "invariant.invariant_extremal_channel": None,
    "applications.cardioid_bayes_risk": None,
    "applications.cardioid_orbit_risk": None,
    "serialize.weights_to_json": None,
}

# Units of the traced run's metrics besides the per-function calls /
# busy_s / self_s triple (trace.overhead_s is computed by run.py).
EXTRA_UNITS = {
    "linalg.enumerate_basic_feasible.supports": "count",
    "linalg.enumerate_basic_feasible.vertices": "count",
    "linalg.enumerate_basic_feasible.yield": "ratio",
    "ldp_geometry.enumerate_polytope_vertices.cache_hit_ratio": "ratio",
    "simplex.solve_standard_lp.per_call_p50_ms": "ms",
    "simplex.solve_standard_lp.cells": "count",
    "decision.bayes_optimal_risk.per_call_p50_ms": "ms",
    "decision.bayes_optimal_risk.outputs": "count",
    "groups.generate_group.elements": "count",
    "groups.orbits.points": "count",
    "cli.output_bytes": "count",
    "trace.overhead_s": "s",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name the traced run reports, with its unit."""
    units = {}
    for name in TRACED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.busy_s"] = "s"
        units[f"{name}.self_s"] = "s"
    units.update(EXTRA_UNITS)
    return units


class Tracer:
    """Span recorder: [name index, start, end, parent span, record]."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _shim(self, index: int, fn, extract):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            span = [index, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if extract is not None:
                span[4] = extract(args, kwargs, result)
            return result

        return shim

    def install(self) -> None:
        """Replace each traced function in every loaded ldpput namespace."""
        modules = [m for name, m in sys.modules.items()
                   if name == "ldpput" or name.startswith("ldpput.")]
        for name, extract in TRACED.items():
            module_name, func_name = name.split(".")
            original = getattr(sys.modules[f"ldpput.{module_name}"], func_name)
            shim = self._shim(len(self.names), original, extract)
            self.names.append(name)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, shim)

    def write(self, path: str) -> None:
        """Dump the raw spans (name, start, end, parent) as JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names,
                       "spans": [s[:4] for s in self.spans]}, fh)

    def summarise(self, output_bytes: int) -> tuple[dict, dict]:
        """Per-layer metrics, plus the exact counts the checks compare."""
        names, spans = self.names, self.spans
        idx = {n: i for i, n in enumerate(names)}
        child_time = [0.0] * len(spans)
        children_of: dict[int, list[int]] = {}
        for k, (_, start, end, parent, _) in enumerate(spans):
            if parent >= 0:
                child_time[parent] += end - start
                children_of.setdefault(parent, []).append(k)

        def root_of(k: int) -> int:
            while spans[k][3] >= 0:
                k = spans[k][3]
            return k

        durations: list[list[float]] = [[] for _ in names]
        self_time = [0.0] * len(names)
        for k, (i, start, end, _, _) in enumerate(spans):
            durations[i].append(end - start)
            self_time[i] += (end - start) - child_time[k]

        metrics = {}
        for i, name in enumerate(names):
            metrics[f"{name}.calls"] = len(durations[i])
            metrics[f"{name}.busy_s"] = sum(durations[i], 0.0)
            metrics[f"{name}.self_s"] = self_time[i]

        def p50_ms(name: str) -> float:
            values = durations[idx[name]]
            return statistics.median(values) * 1e3 if values else 0.0

        def records(name: str) -> list[tuple[int, object]]:
            return [(k, s[4]) for k, s in enumerate(spans) if s[0] == idx[name]]

        rank = sys.modules["ldpput.linalg"].rank
        full_enums = []      # (m, supports, vertices) under the full polytope
        supports = vertices = 0
        for k, (matrix, found) in records("linalg.enumerate_basic_feasible"):
            ncols = len(matrix[0]) if matrix else 0
            scanned = comb(ncols, rank(matrix))
            supports += scanned
            vertices += found
            parent = spans[k][3]
            if parent >= 0 and names[spans[parent][0]] == "ldp_geometry.enumerate_polytope_vertices":
                full_enums.append((len(matrix), scanned, found))
        metrics["linalg.enumerate_basic_feasible.supports"] = supports
        metrics["linalg.enumerate_basic_feasible.vertices"] = vertices
        metrics["linalg.enumerate_basic_feasible.yield"] = vertices / supports if supports else 0.0

        enum_idx = idx["linalg.enumerate_basic_feasible"]
        polytope = records("ldp_geometry.enumerate_polytope_vertices")
        hits = sum(1 for k, _ in polytope
                   if not any(spans[c][0] == enum_idx for c in children_of.get(k, ())))
        metrics["ldp_geometry.enumerate_polytope_vertices.cache_hit_ratio"] = \
            hits / len(polytope) if polytope else 0.0

        metrics["simplex.solve_standard_lp.per_call_p50_ms"] = p50_ms("simplex.solve_standard_lp")
        metrics["simplex.solve_standard_lp.cells"] = sum(
            c for _, c in records("simplex.solve_standard_lp"))
        metrics["decision.bayes_optimal_risk.per_call_p50_ms"] = p50_ms("decision.bayes_optimal_risk")
        metrics["decision.bayes_optimal_risk.outputs"] = sum(
            n for _, n in records("decision.bayes_optimal_risk"))
        metrics["groups.generate_group.elements"] = sum(
            n for _, n in records("groups.generate_group"))
        metrics["groups.orbits.points"] = sum(n for _, n in records("groups.orbits"))
        metrics["cli.output_bytes"] = output_bytes

        # Per op (one cli.main root span each): minimax solves and the LPs
        # they ran, for the exact per-op counts.
        minimax_idx = idx["decision.minimax_risk"]
        lp_idx = idx["simplex.solve_standard_lp"]
        per_op: dict[int, list[int]] = {}
        for k, span in enumerate(spans):
            if span[0] == minimax_idx:
                per_op.setdefault(root_of(k), [0, 0])[0] += 1
            elif span[0] == lp_idx and span[3] >= 0 and spans[span[3]][0] == minimax_idx:
                per_op.setdefault(root_of(k), [0, 0])[1] += 1
        roots = [k for k, s in enumerate(spans) if s[3] < 0]
        counts = {
            "full_enumerations": full_enums,
            "polytope_vertices": [r for _, r in polytope],
            "minimax_per_op": [per_op.get(k, [0, 0]) for k in roots],
        }
        return metrics, counts
