"""The benchmark's workloads: seeded lists of CLI calls.

Each op is a dict with the ``argv`` handed to ``ldpput.cli.main`` and the
``check`` that its output must pass.  The seed picks privacy levels t,
signal strengths gamma, random decision problems and audit seeds; the
program only ever sees the argv and the problem files written here.

One pass (all ops of a list, in one fresh interpreter) takes 16-36 s for
polytope-m5 and about 7-17 s for the others on a 2-core x86 box with
CPython 3.11, depending on how busy the shared host is.  The multi-op
lists are as long as that budget allows: their seed-to-seed cost spread
falls with the number of random problems in a pass.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

T_VALUES = ("3/2", "2", "3", "5")
# gamma = 1 zeroes the ht model's off-diagonal mass and makes its exact
# Bayes sums cheaper, so it is left out to keep seeds comparable in cost.
GAMMAS = ("1/3", "1/2", "2/3", "3/4")

WORKLOADS = ("polytope-m5", "minimax-m4", "audit-m4", "symmetry")


def _spread_t(rng: random.Random, n: int) -> list[str]:
    """n levels covering T_VALUES as evenly as n allows, in seeded order."""
    values = [T_VALUES[i % len(T_VALUES)] for i in range(n)]
    rng.shuffle(values)
    return values


def _distribution(rng: random.Random, n: int) -> list[Fraction]:
    raw = [rng.randint(1, 9) for _ in range(n)]
    total = sum(raw)
    return [Fraction(v, total) for v in raw]


def _decision_problem(rng: random.Random, with_prior: bool) -> dict:
    """Random rational problem: 3 parameters, 4 input letters, 3 actions."""
    n_par, m, n_act = 3, 4, 3
    columns = [_distribution(rng, m) for _ in range(n_par)]
    data = {
        "parameters": list(range(n_par)),
        "inputs": list(range(m)),
        "actions": list(range(n_act)),
        "model": [[str(columns[i][x]) for i in range(n_par)] for x in range(m)],
        "loss": [[str(rng.randint(0, 4)) for _ in range(n_act)] for _ in range(n_par)],
    }
    if with_prior:
        data["prior"] = [str(p) for p in _distribution(rng, n_par)]
    return data


def _polytope_m5(rng, problem_dir):
    t, gamma = rng.choice(T_VALUES), rng.choice(GAMMAS)
    return [{"argv": ["put", "--task", "ht", "--m", "5", "--method", "all",
                      "--t", t, "--gamma", gamma],
             "check": {"kind": "ht", "m": 5, "t": t, "gamma": gamma, "rows": 5}}]


def _minimax_m4(rng, problem_dir):
    # Two thirds minimax (41 exact LPs each), one third Bayes with a prior.
    priors = [False] * 10 + [True] * 5
    rng.shuffle(priors)
    ops = []
    for i, (with_prior, t) in enumerate(zip(priors, _spread_t(rng, len(priors)))):
        problem = _decision_problem(rng, with_prior)
        path = os.path.join(problem_dir, f"problem{i:02d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(problem, fh)
        ops.append({"argv": ["put", "--problem", path, "--t", t],
                    "check": {"kind": "bayes" if with_prior else "minimax",
                              "t": t, "problem": problem}})
    return ops


def _audit_m4(rng, problem_dir):
    ops = []
    for task in ("ht", "cardioid") * 6:
        t, gamma = rng.choice(T_VALUES), rng.choice(GAMMAS)
        seed = str(rng.randrange(10 ** 6))
        ops.append({"argv": ["audit", "--task", task, "--m", "4", "--t", t,
                             "--gamma", gamma, "--samples", "200", "--seed", seed],
                    "check": {"kind": "audit", "task": task, "samples": 200}})
    rng.shuffle(ops)
    return ops


def _symmetry(rng, problem_dir):
    ops = []
    for round_index, t in enumerate(_spread_t(rng, 4)):
        gamma = rng.choice(GAMMAS)
        ops += [
            {"argv": ["put", "--task", "cardioid", "--m", "10", "--t", t, "--gamma", gamma],
             "check": {"kind": "cardioid", "m": 10, "t": t, "gamma": gamma}},
            {"argv": ["put", "--task", "ht", "--m", "7", "--method", "closed,transitive,vertex",
                      "--t", t, "--gamma", gamma],
             "check": {"kind": "ht", "m": 7, "t": t, "gamma": gamma, "rows": 3}},
            {"argv": ["put", "--task", "ht", "--m", "7", "--group", "cyclic",
                      "--method", "transitive,vertex", "--t", t, "--gamma", gamma],
             "check": {"kind": "ht", "m": 7, "t": t, "gamma": gamma, "rows": 2}},
            {"argv": ["enumerate", "--m", "7", "--group", "sym", "--t", t],
             "check": {"kind": "orbit_vertices", "m": 7, "t": t}},
            {"argv": ["enumerate", "--m", "7", "--group", "cyclic", "--t", t],
             "check": {"kind": "orbit_vertices", "m": 7, "t": t}},
        ]
        # Grouped listings format orbits inline; only an ungrouped listing
        # reaches the weight-vector serializer.
        if round_index < 2:
            ops.append({"argv": ["enumerate", "--m", "4", "--t", t],
                        "check": {"kind": "vertices", "m": 4, "t": t}})
    rng.shuffle(ops)
    return ops


_BUILDERS = {
    "polytope-m5": _polytope_m5,
    "minimax-m4": _minimax_m4,
    "audit-m4": _audit_m4,
    "symmetry": _symmetry,
}


def build_ops(workload: str, seed: int, problem_dir: str) -> list[dict]:
    """The seeded op list of one workload; writes any problem files it needs."""
    rng = random.Random(f"{workload}:{seed}")
    return _BUILDERS[workload](rng, problem_dir)
