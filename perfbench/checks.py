"""Output checks, run after the timed passes.

Each check gets an op's exit code and stdout and returns a failure reason
or None.  Exact tasks are compared exactly with their closed forms; custom
decision problems are compared with independent float oracles (scipy's
HiGHS for minimax, a direct numpy sum for Bayes) over the vertex channels.
"""

from __future__ import annotations

import json
from fractions import Fraction

# Pinned tolerances of the float comparisons (risks are O(1)).
MINIMAX_ORACLE_TOL = 1e-7
BAYES_ORACLE_TOL = 1e-9
CARDIOID_TOL = 1e-9


class Checker:
    """Holds the ldpput modules and per-level vertex channels the checks use."""

    def __init__(self, vertex_counts: dict[int, int]):
        from ldpput import applications, channels, groups, ldp_geometry

        self.apps = applications
        self.as_level = channels.as_level
        self.alphabet = groups.FiniteAlphabet.of_size
        self.geometry = ldp_geometry
        self.vertex_counts = vertex_counts
        self._channels: dict[tuple[int, str], list] = {}

    def vertex_count(self, m: int, t: str) -> int:
        """Vertices the library finds for the full polytope at (m, t)."""
        return len(self.geometry.enumerate_polytope_vertices(self.alphabet(m), self.as_level(t)))

    def vertex_channels(self, m: int, t: str):
        """Float matrices [y][x] of the extremal channels at the polytope vertices."""
        import numpy as np

        key = (m, t)
        if key not in self._channels:
            vertices = self.geometry.enumerate_polytope_vertices(self.alphabet(m), self.as_level(t))
            self._channels[key] = [
                np.array([[float(v) for v in row]
                          for row in self.geometry.extremal_channel(w).rows])
                for w in vertices]
        return self._channels[key]

    def check(self, spec: dict, code: int, stdout: str) -> str | None:
        if code != 0:
            return f"exit code {code}"
        try:
            return getattr(self, "_" + spec["kind"])(spec, json.loads(stdout))
        except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
            return f"malformed output: {exc!r}"

    def _ht(self, spec, data):
        if data.get("agreement") is not True or len(data["results"]) != spec["rows"]:
            return "methods missing or not in agreement"
        want = self.apps.ht_put_closed_form(spec["m"], spec["gamma"], spec["t"])
        for row in data["results"]:
            if Fraction(row["value"]) != want:
                return f"{row['method']} gave {row['value']}, closed form {want}"
        return None

    def _cardioid(self, spec, data):
        if data.get("agreement") is not True or len(data["results"]) != 2:
            return "methods missing or not in agreement"
        level = self.as_level(spec["t"])
        want = self.apps.cardioid_put_closed_form(
            self.apps.CardioidSpec.build(spec["m"], spec["gamma"], level))
        for row in data["results"]:
            if abs(float(row["value"]) - want) > CARDIOID_TOL:
                return f"{row['method']} gave {row['value']}, closed form {want!r}"
        return None

    def _minimax(self, spec, data):
        if data.get("risk") != "minimax" or len(data["results"]) != 1:
            return "expected one minimax result"
        want = min(_minimax_oracle(spec["problem"], q)
                   for q in self.vertex_channels(4, spec["t"]))
        got = float(Fraction(data["results"][0]["value"]))
        if abs(got - want) > MINIMAX_ORACLE_TOL:
            return f"minimax {got!r}, scipy oracle {want!r}"
        return None

    def _bayes(self, spec, data):
        if data.get("risk") != "bayes" or data.get("agreement") is not True \
                or len(data["results"]) != 2:
            return "expected two agreeing Bayes results"
        want = min(_bayes_oracle(spec["problem"], q)
                   for q in self.vertex_channels(4, spec["t"]))
        for row in data["results"]:
            got = float(Fraction(row["value"]))
            if abs(got - want) > BAYES_ORACLE_TOL:
                return f"{row['method']} {got!r}, float oracle {want!r}"
        return None

    def _audit(self, spec, data):
        if data.get("passed") is not True or data.get("samples") != spec["samples"]:
            return "audit did not pass"
        gap = Fraction(data["min_gap"])
        floor = 0 if spec["task"] == "ht" else -CARDIOID_TOL
        if gap < floor:
            return f"a sampled channel beat the optimum by {-gap}"
        return None

    def _vertices(self, spec, data):
        level = self.as_level(spec["t"])
        if data["count"] != len(data["vertices"]) or \
                data["count"] != self.vertex_counts[spec["m"]]:
            return f"listed {data['count']} vertices"
        for vertex in data["vertices"]:
            weights = [Fraction(w) for w in vertex["weights"]]
            if min(weights) < 0:
                return f"negative weight in {vertex}"
            for x in range(spec["m"]):
                total = sum(w * (level.t if mask >> x & 1 else 1)
                            for mask, w in zip(vertex["support"], weights))
                if total != 1:
                    return f"vertex {vertex} is off the polytope"
        return None

    def _orbit_vertices(self, spec, data):
        # Both groups are transitive, so a subset orbit of `size` k-subsets
        # covers each letter size*k/m times; each letter's column sum is one.
        m, t = spec["m"], self.as_level(spec["t"]).t
        if data["count"] != len(data["vertices"]) or data["count"] == 0:
            return "vertex count does not match the listing"
        for vertex in data["vertices"]:
            total = Fraction(0)
            for orbit in vertex["orbits"]:
                w, size, k = Fraction(orbit["weight"]), orbit["size"], orbit["subset_size"]
                if w < 0:
                    return f"negative orbit weight in {vertex}"
                total += w * size * (k * t + m - k) / m
            if total != 1:
                return f"orbit vertex {vertex} is off the polytope"
        return None


def _channel_model(problem: dict, q):
    """W[y][i]: output distribution under each parameter, through q."""
    import numpy as np

    model = np.array([[float(Fraction(v)) for v in row] for row in problem["model"]])
    return q @ model


def _minimax_oracle(problem: dict, q) -> float:
    """min over randomized rules of max over parameters of the risk, by HiGHS."""
    import numpy as np
    from scipy.optimize import linprog

    w = _channel_model(problem, q)
    loss = np.array([[float(Fraction(v)) for v in row] for row in problem["loss"]])
    n_out, n_par = w.shape
    n_act = loss.shape[1]
    n_rule = n_out * n_act
    # Variables: rule[y, a] (row-major), then the level v.
    a_ub = np.zeros((n_par, n_rule + 1))
    for i in range(n_par):
        a_ub[i, :n_rule] = np.outer(w[:, i], loss[i]).ravel()
        a_ub[i, n_rule] = -1.0
    a_eq = np.zeros((n_out, n_rule + 1))
    for y in range(n_out):
        a_eq[y, y * n_act:(y + 1) * n_act] = 1.0
    cost = np.zeros(n_rule + 1)
    cost[n_rule] = 1.0
    res = linprog(cost, A_ub=a_ub, b_ub=np.zeros(n_par), A_eq=a_eq, b_eq=np.ones(n_out),
                  bounds=[(0, None)] * n_rule + [(None, None)], method="highs")
    if res.status != 0:
        raise RuntimeError(f"oracle LP failed: {res.message}")
    return float(res.fun)


def _bayes_oracle(problem: dict, q) -> float:
    import numpy as np

    w = _channel_model(problem, q)
    prior = np.array([float(Fraction(v)) for v in problem["prior"]])
    loss = np.array([[float(Fraction(v)) for v in row] for row in problem["loss"]])
    return float(((w * prior) @ loss).min(axis=1).sum())
