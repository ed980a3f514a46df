#!/usr/bin/env python3
"""Measures the run-to-run spread of every end-to-end metric.

    python3 perfbench/noise.py

Runs each workload of BENCHMARK.json ten times through run.py, with
seeds 1..10 and its run_seconds, and prints per metric the median and
the interquartile range as a share of the median (Python's
statistics.quantiles(values, n=4)), next to the bound in BENCHMARK.json.
NOISE.md records the result.
"""

import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNS = 10


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else float("inf")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0.0
    for workload in [w["name"] for w in bench["workloads"]]:
        runs = []
        for seed in range(1, RUNS + 1):
            out = subprocess.run(
                [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
            runs.append(json.loads(out.strip().splitlines()[-1])["metrics"])
        print("## %s (%d runs, seeds 1..%d)" % (workload, RUNS, RUNS))
        print("| metric | median | min – max | IQR/median | bound | IQR/bound |")
        print("|---|---|---|---|---|---|")
        for metric, bound in bounds.items():
            values = [r[metric]["value"] for r in runs]
            med, rel = spread(values)
            if metric != "setup_s":
                worst = max(worst, rel / bound)
            print("| `%s` | %.6g %s | %.5g – %.5g | %.4f | %.2f | %.2f |" %
                  (metric, med, runs[0][metric]["unit"], min(values), max(values),
                   rel, bound, rel / bound))
        print(flush=True)
    print("largest IQR/bound, setup_s aside: %.2f" % worst)


if __name__ == "__main__":
    main()
