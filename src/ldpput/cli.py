"""Command-line front end.

Subcommands: check-channel, enumerate, put, audit.  Exit codes:
0 success, 2 input/parse problems, 3 a cap was exceeded, 4 solution
methods disagreed, 5 an audit found a violating channel.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

from . import applications as apps
from .channels import PrivacyLevel, as_level
from .decision import bayes_linear_coefficients, bayes_optimal_risk, minimax_risk
from .errors import (
    AuditFailureError,
    CapExceededError,
    DimensionCapError,
    LdpPutError,
    MethodDisagreementError,
)
from .groups import FiniteAlphabet, all_subset_masks, cyclic_group, symmetric_group
from .invariant import enumerate_invariant_vertices
from .ldp_geometry import (
    DEFAULT_ENUM_CAP_M,
    enumerate_polytope_vertices,
    require_enum_cap,
    require_grouped_cap,
    subset_orbits,
)
from .put_solver import (
    CERT_EXACT,
    FLOAT_TOLERANCE,
    constant_on_orbits,
    put_by_lp,
    put_by_vertex_enumeration,
    put_transitive_closed_form,
    random_channel_audit,
)
from .rationals import as_fraction, format_fraction
from .serialize import (
    channel_from_json,
    group_from_json,
    maximality_certificate,
    problem_from_json,
    vertices_to_json,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CAP = 3
EXIT_DISAGREE = 4
EXIT_AUDIT = 5

METHODS = ("closed", "transitive", "vertex", "vertex_full", "lp")
CSV_HEADER = ["task", "m", "gamma", "t", "method", "value", "winner", "certificate"]


def _enum_cap() -> int:
    raw = os.environ.get("LDPPUT_CAP_M")
    if raw is None:
        return DEFAULT_ENUM_CAP_M
    try:
        return int(raw)
    except ValueError as exc:
        # Exits like an argparse error: a bad setting is a parse problem.
        print(f"error: LDPPUT_CAP_M must be an integer, got {raw!r}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE) from exc


def _parse_level(args) -> tuple[PrivacyLevel, dict | None]:
    """Resolve --t / --epsilon into an exact level, noting any approximation."""
    if args.t is not None and args.epsilon is not None:
        raise ValueError("give either --t or --epsilon, not both")
    if args.t is not None:
        return as_level(args.t), None
    if args.epsilon is not None:
        try:
            level, bound = PrivacyLevel.from_epsilon(float(args.epsilon))
        except OverflowError as exc:
            raise ValueError(f"--epsilon {args.epsilon} is too large for an exact "
                             "level") from exc
        note = {"epsilon": float(args.epsilon), "t": format_fraction(level.t),
                "approximation_bound": bound}
        return level, note
    raise ValueError("a privacy level is required: --t p/q or --epsilon x")


def _tolerance(text: str) -> Fraction:
    """A --tolerance value, read exactly: a nonnegative decimal (1e-9) or
    ratio (1/3) that a float can hold.  Both commands parse it here."""
    try:
        value = as_fraction(text)
    except ValueError:
        value = None
    if value is None or not 0 <= value <= sys.float_info.max:
        raise argparse.ArgumentTypeError(
            f"must be a finite nonnegative number, got {text!r}")
    return value


def _parse_group(spec: str | None, alphabet: FiniteAlphabet):
    if spec is None:
        return None
    if spec == "sym":
        return symmetric_group(alphabet)
    if spec == "cyclic":
        return cyclic_group(alphabet)
    if spec.startswith("file:"):
        with open(spec[5:], encoding="utf-8") as fh:
            group = group_from_json(json.load(fh))
        if group.alphabet != alphabet:
            raise ValueError(f"--group acts on {group.alphabet.letters}, not {alphabet.letters}")
        return group
    raise ValueError(f"group must be 'sym', 'cyclic', or 'file:PATH', got {spec!r}")


def _emit(data, args, note) -> None:
    if note:
        data["level_note"] = note
    if args.format == "csv":
        text = _to_csv(data)
    else:
        text = json.dumps(data, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _to_csv(data) -> str:
    """One CSV layout per output kind; a level note ends the results and
    vertex layouts as one key/value row, an object as one JSON cell."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    pairs = [("level_note", data["level_note"])] if "level_note" in data else []
    if "results" in data:
        writer.writerow(CSV_HEADER)
        for row in data["results"]:
            writer.writerow([data.get("task", "custom"), data.get("m", ""),
                             data.get("gamma", ""), data.get("t", ""),
                             row["method"], row["value"], row.get("winner", ""),
                             row["certificate"]])
    elif "group" in data:
        writer.writerow(["index", "representatives", "sizes", "weights"])
        for i, v in enumerate(data["vertices"]):
            writer.writerow([i] + [" ".join(str(o[key]) for o in v["orbits"])
                                   for key in ("representative", "size", "weight")])
    elif "vertices" in data:
        writer.writerow(["index", "support", "weights"])
        for i, v in enumerate(data["vertices"]):
            writer.writerow([i, " ".join(map(str, v["support"])),
                             " ".join(v["weights"])])
    else:
        pairs = sorted(data.items())
    for key, value in pairs:
        if isinstance(value, (dict, list)):
            value = json.dumps(value, sort_keys=True)
        writer.writerow([key, value])
    return buf.getvalue()


def cmd_check_channel(args) -> int:
    with open(args.channel, encoding="utf-8") as fh:
        channel = channel_from_json(json.load(fh))
    level, note = _parse_level(args)
    _emit(maximality_certificate(channel, level), args, note)
    return EXIT_OK


def cmd_enumerate(args) -> int:
    level, note = _parse_level(args)
    alphabet = FiniteAlphabet.of_size(args.m)
    group = _parse_group(args.group, alphabet)
    data = {"m": args.m, "t": format_fraction(level.t)}
    if group is not None and not group.is_trivial:
        require_grouped_cap(args.m)
        vertices = enumerate_invariant_vertices(group, level)
        data["group"] = args.group
        data["vertices"] = [
            {"orbits": [{"representative": o.representative,
                         "size": o.size,
                         "subset_size": o.subset_size,
                         "weight": format_fraction(w)}
                        for o, w in zip(v.orbits, v.values) if w],
             }
            for v in vertices
        ]
    else:
        vertices = enumerate_polytope_vertices(alphabet, level, cap=_enum_cap())
        data["vertices"] = vertices_to_json(vertices)
    data["count"] = len(data["vertices"])
    _emit(data, args, note)
    return EXIT_OK


def _format_value(value) -> str:
    return format_fraction(value) if isinstance(value, Fraction) else repr(float(value))


def _winner_label(weights) -> str:
    if not weights.polytope.group.is_trivial:
        for orbit, w in zip(weights.orbits, weights.numerators):
            if w:
                return f"orbit(rep={orbit.representative},k={orbit.subset_size})"
        return "none"
    support = weights.support
    return "support(" + ",".join(map(str, support)) + ")"


@dataclass(frozen=True)
class _Task:
    """One objective as `put` and `audit` solve it: the methods it runs,
    the group `transitive` and `vertex` reduce by when no --group is
    given, and the functions that build the per-subset Bayes form u, the
    objective at the pure channel on each mask's orbit (both indexed by
    mask - 1), and the closed form with its winner.  Each runs only when
    a chosen method needs it, except that the values are also built to
    check a --group against them."""

    header: dict
    alphabet: FiniteAlphabet
    objective: Callable
    methods: tuple[str, ...]
    default_group: Callable | None = None
    form: Callable | None = None
    values: Callable | None = None
    closed: Callable | None = None


def _task(args, level) -> _Task:
    """The description of the --problem or --task that args name."""
    t = format_fraction(level.t)
    if getattr(args, "problem", None):
        with open(args.problem, encoding="utf-8") as fh:
            problem, prior = problem_from_json(json.load(fh))
        alphabet = problem.input_alphabet
        header = {"task": "custom", "risk": "minimax" if prior is None else "bayes",
                  "m": alphabet.size, "t": t}
        if prior is None:
            return _Task(header, alphabet, lambda q: minimax_risk(problem, q), ("vertex",))
        return _Task(header, alphabet,
                     lambda q: bayes_optimal_risk(problem, prior, q), ("vertex", "lp"),
                     form=lambda: bayes_linear_coefficients(problem, prior, level))
    if args.task not in ("ht", "cardioid"):
        raise ValueError("put needs --task ht|cardioid or --problem FILE")
    if args.m is None:
        raise ValueError("--m is required with --task")
    m, gamma = args.m, as_fraction(args.gamma)
    header = {"task": args.task, "m": m, "gamma": format_fraction(gamma), "t": t}
    if args.task == "ht":
        problem, prior = apps.ht_problem(m, gamma)
        alphabet = problem.input_alphabet

        def values():
            by_k = {k: apps.ht_subset_risk(m, gamma, level, k) for k in range(1, m)}
            return [by_k[mask.bit_count()] for mask in all_subset_masks(m)]

        return _Task(header, alphabet,
                     lambda q: bayes_optimal_risk(problem, prior, q), METHODS,
                     default_group=lambda: symmetric_group(alphabet),
                     form=lambda: bayes_linear_coefficients(problem, prior, level),
                     values=values,
                     closed=lambda: (apps.ht_put_closed_form(m, gamma, level), "k=1"))
    spec = apps.CardioidSpec.build(m, gamma, level)
    alphabet = FiniteAlphabet.of_size(m)

    return _Task(header, alphabet, lambda q: apps.cardioid_bayes_risk(spec, q),
                 ("closed", "transitive"),
                 default_group=lambda: cyclic_group(alphabet),
                 values=lambda: [apps.cardioid_orbit_risk(spec, mask)
                                 for mask in all_subset_masks(m)],
                 closed=lambda: (apps.cardioid_put_closed_form(spec),
                                 f"k={apps.cardioid_best_size(spec)}"))


def _solve(task: _Task, wanted: list[str], group, level) -> list[dict]:
    """Run the wanted methods on one task, one result row each.

    `transitive` and `vertex` reduce by the user's group or else the
    task's default, `vertex_full` by none, and `lp` by the user's group
    only.  The grouped cap is checked before any subset orbits are
    built, the enumeration cap before u is built, and a user's group
    before any solver runs: u, when a chosen method reads it, and the
    task's values must be constant on its subset orbits.
    """
    reduced = group
    if group is None and task.default_group and {"transitive", "vertex"} & set(wanted):
        reduced = task.default_group()
    group_of = {"transitive": reduced, "vertex": reduced, "vertex_full": None, "lp": group}
    on_form = [w for w in wanted if w in ("vertex", "vertex_full", "lp")]
    if reduced is not None:
        require_grouped_cap(task.alphabet.size)  # before the 2^m - 2 subset orbits
    cap = DEFAULT_ENUM_CAP_M  # grouped solvers do not read it
    if any(group_of[w] is None or group_of[w].is_trivial for w in on_form):
        cap = _enum_cap()
        require_enum_cap(task.alphabet.size, cap)  # before the 2^m - 2 coefficients
    u = task.form() if task.form and on_form else None
    on_values = task.values is not None and ("transitive" in wanted or group is not None)
    values = task.values() if on_values else None
    if group is not None:
        orbits = subset_orbits(group)
        if not all(constant_on_orbits(x, orbits) for x in (u, values) if x is not None):
            raise ValueError("the objective is not invariant under --group: its "
                             "per-subset values differ within a subset orbit")
    results = []
    for method in wanted:
        if method == "closed":
            value, winner = task.closed()
            results.append({"method": "closed_form", "value": value, "winner": winner,
                            "certificate": CERT_EXACT})
            continue
        if method == "transitive":
            res = put_transitive_closed_form(values, reduced, level)
        elif method == "lp":
            res = put_by_lp(u, task.alphabet, level, group=group, cap=cap)
        else:
            res = put_by_vertex_enumeration(task.objective, task.alphabet, level,
                                            group=group_of[method], coefficients=u, cap=cap)
        results.append({"method": res.method, "value": res.value,
                        "winner": _winner_label(res.argmin_weights),
                        "certificate": res.certificate})
    return results


def _methods(args, task: _Task) -> list[str]:
    raw = "all" if args.method is None else args.method
    wanted = METHODS if raw == "all" else [w.strip() for w in raw.split(",") if w.strip()]
    if not wanted:
        raise ValueError(f"--method names no method, got {raw!r}")
    for w in wanted:
        if w == "all":
            raise ValueError(f"--method all must stand alone, got {raw!r}")
        if w not in METHODS:
            raise ValueError(f"method must be one of {METHODS} or 'all', got {w!r}")
    wanted = [w for w in wanted if w in task.methods]
    if not wanted:
        label = "--problem" if task.header["task"] == "custom" else f"--task {args.task}"
        raise ValueError(f"{label} runs only the methods {task.methods}, got {raw!r}")
    return wanted


def _check_agreement(results: list[dict], tolerance: Fraction) -> None:
    values = [Fraction(row["value"]) for row in results]
    lo, hi = min(values), max(values)
    spread, tolerance = float(hi - lo), float(tolerance)
    if spread > tolerance:
        raise MethodDisagreementError(
            f"methods disagree: spread {spread} exceeds {tolerance}")


def cmd_put(args) -> int:
    level, note = _parse_level(args)
    task = _task(args, level)
    group = _parse_group(args.group, task.alphabet)
    results = _solve(task, _methods(args, task), group, level)
    _check_agreement(results, args.tolerance)
    data = {**task.header, "agreement": True,
            "results": [{**row, "value": _format_value(row["value"])} for row in results]}
    _emit(data, args, note)
    return EXIT_OK


def cmd_audit(args) -> int:
    level, note = _parse_level(args)
    if args.samples < 1:
        raise ValueError(f"--samples must be at least 1, got {args.samples}")
    task = _task(args, level)
    # The optimum to beat: the LP of the form when there is one.
    baseline = _solve(task, ["lp" if task.form else "closed"], None, level)[0]["value"]
    if isinstance(baseline, Fraction):
        tolerance = 0 if args.tolerance is None else args.tolerance
    else:
        tolerance = FLOAT_TOLERANCE if args.tolerance is None else float(args.tolerance)
    data = {**task.header, "samples": args.samples, "seed": args.seed}
    try:
        report = random_channel_audit(task.objective, task.alphabet, level,
                                      samples=args.samples, seed=args.seed,
                                      baseline_value=baseline,
                                      tolerance=tolerance, cap=_enum_cap())
    except AuditFailureError as exc:
        data["passed"] = False
        data["violation"] = str(exc)
        data["gap"] = _format_value(exc.gap)
        data["channel"] = exc.channel_json
        _emit(data, args, note)
        return EXIT_AUDIT
    data["passed"] = True
    data["min_gap"] = _format_value(report.min_gap) if report.min_gap is not None else None
    _emit(data, args, note)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; `main` reuses it on every call."""
    parser = argparse.ArgumentParser(
        prog="ldpput",
        description="Exact privacy-utility trade-offs for local differential privacy.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_level_args(p):
        p.add_argument("--t", help="privacy bound t = e^epsilon as an exact rational p/q")
        p.add_argument("--epsilon", help="privacy budget; converted to a nearby rational t")

    def add_io_args(p):
        p.add_argument("--out", help="write output to this file instead of stdout")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p_check = sub.add_parser("check-channel", help="privacy and maximality report")
    p_check.add_argument("channel", help="channel JSON file")
    add_level_args(p_check)
    add_io_args(p_check)
    p_check.set_defaults(func=cmd_check_channel)

    p_enum = sub.add_parser("enumerate", help="list all optimal-channel weight vertices")
    p_enum.add_argument("--m", type=int, required=True)
    add_level_args(p_enum)
    p_enum.add_argument("--group", help="sym, cyclic, or file:PATH")
    add_io_args(p_enum)
    p_enum.set_defaults(func=cmd_enumerate)

    p_put = sub.add_parser("put", help="compute a privacy-utility trade-off")
    p_put.add_argument("--task", choices=("ht", "cardioid"))
    p_put.add_argument("--problem", help="custom decision problem JSON")
    p_put.add_argument("--m", type=int)
    p_put.add_argument("--gamma", default="1")
    add_level_args(p_put)
    p_put.add_argument("--group", help="sym, cyclic, or file:PATH")
    p_put.add_argument("--method", help="comma list of: " + ",".join(METHODS) + ", or all")
    p_put.add_argument("--tolerance", type=_tolerance, default="1e-9",
                       help="allowed spread between methods")
    add_io_args(p_put)
    p_put.set_defaults(func=cmd_put)

    p_audit = sub.add_parser("audit", help="random channels must not beat the optimum")
    p_audit.add_argument("--task", choices=("ht", "cardioid"), required=True)
    p_audit.add_argument("--m", type=int, required=True)
    p_audit.add_argument("--gamma", default="1")
    add_level_args(p_audit)
    p_audit.add_argument("--samples", type=int, default=100)
    p_audit.add_argument("--seed", default="0")
    p_audit.add_argument("--tolerance", type=_tolerance, default=None,
                         help="allowed gap below the optimum (default 0, or 1e-9 "
                              "for a float objective)")
    add_io_args(p_audit)
    p_audit.set_defaults(func=cmd_audit)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DimensionCapError, CapExceededError) as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except MethodDisagreementError as exc:
        print(f"method disagreement: {exc}", file=sys.stderr)
        return EXIT_DISAGREE
    except (OSError, json.JSONDecodeError, KeyError, ValueError, TypeError,
            LdpPutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
