#!/usr/bin/env python3
"""Wall-clock performance gate: the repo benchmark on a base tree and a head tree.

    scripts/perf_gate.py BASE HEAD

BASE and HEAD are two checkouts of the repository, for a pull request its
base and its head. For every workload BENCHMARK.json declares, the script
runs BENCHMARK.json's command (perfbench/run.py, untraced) in each tree,
PAIRS times, alternating which tree runs first, with the same seed and run
length on both sides. It compares the medians of the pps the runs report.
The only threshold is BENCHMARK.json's own bound on pps:

    fail        a run's last line says "correct": false or "failed" > 0,
                or head's median pps is below base's by more than the bound;
    unresolved  base's interquartile range, relative to its median, is wider
                than the bound, so the runs cannot tell a regression of that
                size from noise (reported; does not fail the gate);
    pass        otherwise.

When perfbench/ or BENCHMARK.json differ between the trees, the two sides
measure different things: the script says so and compares nothing. A
benchmark change sets a new baseline.

Exit status: 0 when no workload fails, 1 when one does, 2 on bad usage or a
run that printed no JSON line (for example a build failure).
"""

import json
import os
import statistics
import subprocess
import sys

PAIRS = 5          # base/head run pairs per workload
RUN_SECONDS = 3    # perfbench --seconds, the same for both trees
SEED = 1           # perfbench --seed, the same for both trees


def decide(base_runs, head_runs, bound):
    """Verdict for one workload from the last JSON line of every run.

    Returns (status, detail) with status "pass", "fail" or "unresolved".
    """
    for side, runs in (("base", base_runs), ("head", head_runs)):
        for run in runs:
            if run.get("correct") is not True or run.get("failed", 0) > 0:
                return "fail", (f"a {side} run reported correct="
                                f"{run.get('correct')} failed={run.get('failed')}")
    base = [run["metrics"]["pps"]["value"] for run in base_runs]
    head = [run["metrics"]["pps"]["value"] for run in head_runs]
    base_median = statistics.median(base)
    head_median = statistics.median(head)
    q1, _, q3 = statistics.quantiles(base, n=4, method="inclusive")
    spread = (q3 - q1) / base_median
    change = head_median / base_median - 1.0
    detail = (f"pps median base {base_median:.0f} (IQR {spread:.1%}), "
              f"head {head_median:.0f} ({change:+.1%}); bound {bound:.0%}")
    if spread > bound:
        return "unresolved", detail
    if change < -bound:
        return "fail", detail
    return "pass", detail


def benchmark_files(tree):
    """BENCHMARK.json and every file under perfbench/, by relative path."""
    files = {}
    paths = [os.path.join(tree, "BENCHMARK.json")]
    for dirpath, _, names in os.walk(os.path.join(tree, "perfbench")):
        paths += [os.path.join(dirpath, name) for name in names]
    for path in paths:
        with open(path, "rb") as f:
            files[os.path.relpath(path, tree)] = f.read()
    return files


def run_once(tree, command, workload):
    """Runs one untraced benchmark pass in `tree`; returns its last JSON line."""
    argv = command + ["--workload", workload, "--seed", str(SEED),
                      "--seconds", str(RUN_SECONDS), "--trace", "0"]
    out = subprocess.run(argv, cwd=tree, stdout=subprocess.PIPE,
                         text=True).stdout
    lines = out.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        print(f"perf_gate: {workload} in {tree} printed no JSON line",
              file=sys.stderr)
        sys.exit(2)


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base_tree, head_tree = sys.argv[1], sys.argv[2]
    if benchmark_files(base_tree) != benchmark_files(head_tree):
        print("perf_gate: perfbench/ or BENCHMARK.json differ between the "
              "trees; nothing compared (a benchmark change sets a new "
              "baseline)")
        return 0
    with open(os.path.join(head_tree, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bound = next(m["bound"] for m in bench["end_to_end"] if m["name"] == "pps")

    failed = []
    for workload in (w["name"] for w in bench["workloads"]):
        runs = {base_tree: [], head_tree: []}
        for pair in range(PAIRS):
            order = (base_tree, head_tree) if pair % 2 == 0 else (head_tree,
                                                                  base_tree)
            for tree in order:
                run = run_once(tree, bench["command"], workload)
                runs[tree].append(run)
                side = "base" if tree == base_tree else "head"
                print(f"perf_gate: {workload} pair {pair + 1} {side}: "
                      f"pps {run['metrics']['pps']['value']:.0f}", flush=True)
        status, detail = decide(runs[base_tree], runs[head_tree], bound)
        print(f"perf_gate: {status.upper()} {workload}: {detail}", flush=True)
        if status == "fail":
            failed.append(workload)

    if failed:
        print(f"perf_gate: failed on {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
