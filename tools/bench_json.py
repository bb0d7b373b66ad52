"""Write BENCH_<n>.json: the end-to-end metrics of every benchmark workload.

    python3 tools/bench_json.py --out BENCH_21.json --seeds 1 2 3 \
        --tree parent=../parent-checkout --tree change=.

Run it from the repository root.  For each workload in BENCHMARK.json and
each seed, it runs ``perfbench/run.py --trace 0`` once in every tree (a
source checkout, labelled), with the run length of BENCHMARK.json; which
tree runs first alternates from seed to seed.  The file keeps every run
and, per workload and tree, the median and quartiles of ``solve_s``,
``setup_s`` and ``peak_rss_mb``, the runs that were not correct, the
seeds, the host and the Python version.  Each tree after the first also
gets the ratio of its medians to the first tree's, and ``past_bound``
lists every (workload, metric, tree) whose ratio exceeds 1 + the
metric's ``bound`` in BENCHMARK.json.  Without --tree it measures the
current directory as ``change``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

METRICS = ("solve_s", "setup_s", "peak_rss_mb")


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in `tree`; its verdict and metrics."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    verdict = json.loads(lines[-1]) if lines else {}
    metrics = verdict.get("metrics", {})
    return {"correct": verdict.get("correct") is True,
            "attempted": verdict.get("attempted", 0),
            "failed": verdict.get("failed", 0),
            **{name: metrics[name]["value"] for name in METRICS if name in metrics}}


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method; one value is its own quartiles)."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]} if values else {}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarise(runs: list[dict]) -> dict:
    """Per workload and tree: each metric's spread over the correct runs,
    and how many runs there were and were not correct."""
    out: dict[str, dict[str, dict]] = {}
    for run in runs:
        out.setdefault(run["workload"], {}).setdefault(run["tree"], {"runs": []})["runs"].append(run)
    for trees in out.values():
        for label, entry in trees.items():
            group = entry.pop("runs")
            good = [r for r in group if r["correct"]]
            trees[label] = {"runs": len(group), "not_correct": len(group) - len(good),
                            "failed_ops": sum(r["failed"] for r in group),
                            **{name: spread([r[name] for r in good if name in r])
                               for name in METRICS}}
    return out


def ratios(summary: dict, trees: list[str], bounds: dict[str, float]) -> list[dict]:
    """Give each later tree's summary the ratio of its median to the first
    tree's, per metric; returns the entries past 1 + the metric's bound."""
    past = []
    first, *later = trees
    for workload, entries in summary.items():
        for label in later:
            entry = entries[label]
            entry["ratio"] = {}
            for name in METRICS:
                base, own = entries[first][name], entry[name]
                if not base.get("median") or not own:
                    continue  # no correct run on one side
                ratio = entry["ratio"][name] = own["median"] / base["median"]
                if ratio > 1 + bounds[name]:
                    past.append({"workload": workload, "metric": name, "tree": label,
                                 "ratio": ratio, "bound": bounds[name]})
    return past


def host() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {"platform": platform.platform(), "cpu": cpu, "cpus": os.cpu_count()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="the BENCH_<n>.json to write")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--tree", action="append", default=[], metavar="LABEL=PATH",
                        help="a labelled source checkout to measure (repeatable)")
    args = parser.parse_args(argv)

    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    trees = [spec.split("=", 1) for spec in args.tree] or [["change", "."]]
    if any(len(t) != 2 for t in trees):
        parser.error("--tree takes LABEL=PATH")
    seconds = bench["run_seconds"]

    runs = []
    for workload in workloads:
        for i, seed in enumerate(args.seeds):
            for label, path in trees if i % 2 == 0 else trees[::-1]:
                run = {"workload": workload, "seed": seed, "tree": label,
                       **run_once(path, workload, seed, seconds)}
                print(json.dumps(run), file=sys.stderr, flush=True)
                runs.append(run)

    labels = [label for label, _ in trees]
    summary = summarise(runs)
    bounds = {metric["name"]: metric["bound"] for metric in bench["end_to_end"]}
    report = {
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "host": host(),
        "python": platform.python_version(),
        "run_seconds": seconds,
        "seeds": args.seeds,
        "trees": labels,
        "past_bound": ratios(summary, labels, bounds),
        "summary": summary,
        "runs": runs,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
