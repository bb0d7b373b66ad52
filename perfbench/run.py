"""ldpput benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it imports ``ldpput`` from
``./src``, never from an installed copy).  Closed loop, one caller, no
threads: each pass runs a workload's seeded op list back to back through
``ldpput.cli.main`` in a fresh interpreter, so the vertex ``lru_cache``,
import cost and peak RSS are paid per pass as on a real CLI call.  Passes
repeat while another one fits in ``--seconds`` (always at least one).

--trace 0 prints the end-to-end metrics (medians over passes):
  solve_s      wall time of a pass's ops, excluding interpreter start and
               import, at reference host speed (see hostspeed.py)
  setup_s      median of 5 cold ``import ldpput.cli; build_parser()`` starts
               (wall time: import-bound starts do not track the burst)
  peak_rss_mb  peak RSS of a pass's interpreter
The passes' raw wall times and host factors are printed on stderr and kept
in the report.
--trace 1 runs untraced and traced passes of the same ops (in the order
TRACE_ORDER) and prints the per-layer metrics of the traced pass (see
spans.py), plus ``trace.overhead_s`` = traced minus mean untraced solve_s,
both at reference host speed.

Every op is checked (exit code, the CLI's own agreement/passed flags,
closed forms or independent oracles, see checks.py); at the pinned seed
the sha256 of each op's stdout must equal pinned.json, and in every later
pass (traced or not) it must equal the first pass's.  Op runs that fail
any check count in ``failed``; fail_rate = failed / attempted is printed
on stderr.  The last stdout line is the JSON result.  Reports, problem
files and spans are written under ./.perfbench/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from checks import Checker  # noqa: E402
from spans import metric_units  # noqa: E402
from workloads import T_VALUES, WORKLOADS, build_ops  # noqa: E402

SETUP_STARTS = 5
# Untraced, traced, untraced: the overhead estimate cancels a linear drift
# in host speed across the three passes.
TRACE_ORDER = (False, True, False)
RUN_DEADLINE_S = 170.0
E2E_UNITS = {"solve_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class PassFailed(Exception):
    pass


def run_pass(src: str, out_dir: str, argvs: list, trace: bool, deadline: float) -> dict:
    spec_path = os.path.join(out_dir, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump({"ops": argvs, "trace": trace,
                   "spans_out": os.path.join(out_dir, "spans.json")}, fh)
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), src, spec_path],
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"pass exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise PassFailed(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def reference_solve(p: dict) -> float:
    """A pass's op wall time at reference host speed (see hostspeed.py)."""
    return p["solve_s"] / p["host_factor"]


def measure_setup(src: str) -> float:
    env = dict(os.environ, PYTHONPATH=src)
    samples = []
    for _ in range(SETUP_STARTS):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c",
                                 "import ldpput.cli; ldpput.cli.build_parser()"], env=env)
        # A blocking wait returns at the child's exit; wait(timeout=...) polls
        # in steps of up to 50 ms, which would round every start up.
        killer = threading.Timer(60, proc.kill)
        killer.start()
        try:
            code = proc.wait()
        finally:
            killer.cancel()
        samples.append(time.perf_counter() - t0)
        if code != 0:
            raise RuntimeError(f"cold start exited with {code}")
    return statistics.median(samples)


def verify(checker: Checker, pinned: dict, ops: list, passes: list, seed: int,
           workload: str) -> list[str]:
    """Check every op of every pass; returns one reason per failed op run.

    The checks run on the first pass's output; a later pass passes when
    its stdout is byte-identical to the first pass's.
    """
    failures = []
    digests = pinned["digests"].get(workload) if seed == pinned["default_seed"] else None
    for i, op in enumerate(ops):
        first = passes[0]["ops"][i]
        reason = checker.check(op["check"], first["code"], first["stdout"])
        if reason is None and digests is not None and first["sha256"] != digests[i]:
            reason = "stdout differs from the pinned digest"
        for k, later in enumerate(passes):
            if reason is None and later["ops"][i]["sha256"] != first["sha256"]:
                failures.append(f"op {i} pass {k}: stdout differs from pass 0")
            elif reason is not None:
                failures.append(f"op {i} pass {k} {' '.join(op['argv'])}: {reason}")
    return failures


def verify_counts(pinned: dict, ops: list, counts: dict) -> list[str]:
    """The traced run's exact counts against the pinned ones."""
    problems = []
    vertex_counts = pinned["vertex_counts"]
    for m, found in counts["polytope_vertices"]:
        if found != vertex_counts[str(m)]:
            problems.append(f"m={m}: {found} polytope vertices, pinned {vertex_counts[str(m)]}")
    for m, supports, found in counts["full_enumerations"]:
        if supports != pinned["supports"][str(m)] or found != vertex_counts[str(m)]:
            problems.append(f"m={m}: {supports} supports / {found} vertices scanned")
    want = pinned["minimax_m4_per_op"]
    for op, (solves, lps) in zip(ops, counts["minimax_per_op"]):
        if op["check"]["kind"] == "minimax" and [solves, lps] != [want["minimax_solves"], want["lps"]]:
            problems.append(f"{' '.join(op['argv'])}: {solves} minimax solves, {lps} LPs")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "ldpput", "cli.py")):
        print("run from the root of an ldpput checkout: ./src/ldpput is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    with open(os.path.join(HERE, "pinned.json"), encoding="utf-8") as fh:
        pinned = json.load(fh)

    out_dir = os.path.join(".perfbench", f"{args.workload}-seed{args.seed}")
    os.makedirs(out_dir, exist_ok=True)
    ops = build_ops(args.workload, args.seed, out_dir)
    argvs = [op["argv"] for op in ops]

    problems: list[str] = []
    passes = []
    lost = 0  # ops of a pass whose worker crashed or timed out
    try:
        if args.trace:
            for traced in TRACE_ORDER:
                passes.append(run_pass(src, out_dir, argvs, traced, deadline))
        else:
            while True:
                t0 = time.monotonic()
                passes.append(run_pass(src, out_dir, argvs, False, deadline))
                elapsed, last = time.monotonic() - start, time.monotonic() - t0
                if elapsed + last > min(args.seconds, RUN_DEADLINE_S - 30):
                    break
    except PassFailed as exc:
        problems.append(str(exc))
        lost = len(ops)

    checker = Checker({int(m): n for m, n in pinned["vertex_counts"].items()})
    failures = verify(checker, pinned, ops, passes, args.seed, args.workload) if passes else []
    for m in (2, 3, 4):
        for t in T_VALUES:
            found = checker.vertex_count(m, t)
            if found != pinned["vertex_counts"][str(m)]:
                problems.append(f"m={m} t={t}: {found} polytope vertices")

    if args.trace:
        units = metric_units()
        metrics = {}
        if len(passes) == len(TRACE_ORDER):
            traced = [p for p, on in zip(passes, TRACE_ORDER) if on]
            plain = [p for p, on in zip(passes, TRACE_ORDER) if not on]
            metrics = dict(traced[0]["layers"])
            metrics["trace.overhead_s"] = (statistics.mean(reference_solve(p) for p in traced)
                                           - statistics.mean(reference_solve(p) for p in plain))
            for p in traced:
                problems += verify_counts(pinned, ops, p["counts"])
    else:
        units = E2E_UNITS
        metrics = {}
        if passes:
            metrics = {
                "solve_s": statistics.median(reference_solve(p) for p in passes),
                "setup_s": measure_setup(src),
                "peak_rss_mb": statistics.median(p["peak_rss_kb"] for p in passes) / 1024,
            }
            print(f"wall solve_s per pass {[round(p['solve_s'], 3) for p in passes]}, "
                  f"host factor {[round(p['host_factor'], 3) for p in passes]}", file=sys.stderr)

    attempted = len(ops) * len(passes) + lost
    failed = len(failures) + lost
    correct = not failures and not problems and len(metrics) == len(units)

    for reason in problems + failures:
        print(f"FAIL {reason}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} passes={len(passes)} ops/pass={len(ops)} "
          f"attempted={attempted} failed={failed} fail_rate={failed / attempted:.4f}",
          file=sys.stderr)
    for name, unit in units.items():
        if name in metrics:
            print(f"  {name:62s} {metrics[name]:>14.6g} {unit}", file=sys.stderr)
    with open(os.path.join(out_dir, f"report-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "failures": failures,
                   "problems": problems, "metrics": metrics,
                   "passes": [{k: p.get(k) for k in ("solve_s", "host_factor", "peak_rss_kb")}
                              for p in passes],
                   "ops": [{"argv": op["argv"],
                            "passes": [{k: p["ops"][i][k] for k in ("code", "seconds", "sha256")}
                                       for p in passes]}
                           for i, op in enumerate(ops)]}, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": metrics[name], "unit": unit}
                                  for name, unit in units.items() if name in metrics}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
