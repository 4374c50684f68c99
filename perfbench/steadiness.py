#!/usr/bin/env python3
"""Measures how steady the benchmark is: runs each workload with several
seeds and records, per end-to-end metric, the median, the quartiles and
the spread (interquartile range as a share of the median) next to the
metric's bound from BENCHMARK.json. With --sets 2 it makes two such sets
with fresh seeds and compares their medians against the bounds too.

    python3 perfbench/steadiness.py --runs 10 --sets 2 --first-seed 501
    python3 perfbench/steadiness.py --runs 5 --workloads scan --out spread.md

Run from the root of a checkout. A spread should stay below a third of
its bound, and a second set's median should be no worse than the
first's by more than the bound. Exits non-zero if any spread exceeds its
bound or any median moved by more than its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(spec, workload, seed):
    command = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]),
                                 "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    elapsed = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("run failed (%s seed %d): %s" % (workload, seed,
                                                  proc.stderr[-2000:]))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit("incorrect run (%s seed %d): %s" % (workload, seed,
                                                     proc.stdout[-2000:]))
    return result, elapsed


def measure_set(spec, workloads, seeds):
    """Returns {workload: {metric: [value per seed]}} and wall times."""
    values, wall = {}, {}
    for workload in workloads:
        values[workload] = {m["name"]: [] for m in spec["end_to_end"]}
        wall[workload] = []
        for seed in seeds:
            result, elapsed = run_once(spec, workload, seed)
            wall[workload].append(elapsed)
            for name, vals in values[workload].items():
                vals.append(result["metrics"][name]["value"])
            print("%s seed %d: %.1f s" % (workload, seed, elapsed), flush=True)
    return values, wall


def spread_table(spec, seeds, values, wall):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    report = []
    for workload, metrics in values.items():
        report += ["### %s" % workload, "",
                   "Wall time per run: median %.1f s, max %.1f s." %
                   (statistics.median(wall[workload]), max(wall[workload])), "",
                   "| metric | median | q1 | q3 | spread | bound | in bound "
                   "| < bound/3 |",
                   "|---|---|---|---|---|---|---|---|"]
        for name, vals in metrics.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            within = spread <= bounds[name]
            ok = ok and within
            report.append("| %s | %.6g | %.6g | %.6g | %.4f | %.2f | %s | %s |" %
                          (name, med, q1, q3, spread, bounds[name],
                           "yes" if within else "NO",
                           "yes" if spread < bounds[name] / 3 else "NO"))
        report += ["", "<details><summary>values by seed</summary>", "",
                   "| metric | " + " | ".join(str(s) for s in seeds) + " |",
                   "|---|" + "---|" * len(seeds)]
        for name, vals in metrics.items():
            report.append("| %s | %s |" % (name, " | ".join("%.4g" % v for v in vals)))
        report += ["", "</details>", ""]
    return report, ok


def compare_table(spec, first, second):
    """Second set's median against the first's, in the `better` direction."""
    ok = True
    report = ["| workload | metric | set 1 median | set 2 median | change "
              "| worse by | bound | ok |", "|---|---|---|---|---|---|---|---|"]
    for workload in first:
        for m in spec["end_to_end"]:
            a = statistics.median(first[workload][m["name"]])
            b = statistics.median(second[workload][m["name"]])
            change = (b - a) / a if a else 0.0
            worse = max(change if m["better"] == "lower" else -change, 0.0)
            within = worse <= m["bound"]
            ok = ok and within
            report.append("| %s | %s | %.6g | %.6g | %+.3f | %.3f | %.2f | %s |" %
                          (workload, m["name"], a, b, change, worse, m["bound"],
                           "yes" if within else "NO"))
    return report, ok


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=[1, 2], default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="",
                        help="comma-separated subset (default: all)")
    parser.add_argument("--out", default="",
                        help="write the record as Markdown to this file")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        workloads = [w for w in workloads if w in args.workloads.split(",")]
    report = ["Spread = (q3 - q1) / median, quartiles from "
              "`statistics.quantiles(values, n=4)`; `in bound`: spread <= "
              "bound; `< bound/3`: the tighter target. %d runs per workload "
              "and set, %s s each, trace off, on a %d-core machine (`nproc`)."
              % (args.runs, spec["run_seconds"], os.cpu_count() or 0), ""]
    ok = True
    sets = []
    for k in range(args.sets):
        first = args.first_seed + k * args.runs
        seeds = list(range(first, first + args.runs))
        values, wall = measure_set(spec, workloads, seeds)
        table, steady = spread_table(spec, seeds, values, wall)
        report += ["## Set %d: seeds %d-%d" % (k + 1, seeds[0], seeds[-1]), ""]
        report += table
        ok = ok and steady
        sets.append(values)
    if len(sets) == 2:
        table, agree = compare_table(spec, sets[0], sets[1])
        report += ["## The two sets compared", ""] + table + [""]
        ok = ok and agree
    text = "\n".join(report)
    print(text)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
