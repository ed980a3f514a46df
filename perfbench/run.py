#!/usr/bin/env python3
"""Builds the gisql benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
library and the benchmark binary (Release) into .bench_build/; later
runs only check that the build is current. The binary's stdout is forwarded
unchanged; its last line is the result JSON. Build output goes to
stderr. Traced runs also write Chrome trace JSON of the first ops to
.bench_build/trace-<workload>-<seed>.json.

    python3 perfbench/run.py --selfcheck [--seconds <s>]

runs every workload twice on one seed and once on a second seed, and
fails unless the two same-seed runs print identical simulated metrics
and storage/network counts and every run passes its output checks.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ["point-lookup", "join-analytics", "order-stream", "txn-mixed"]
RUN_TIMEOUT_S = 175
# Metrics on the simulated clock: they must repeat exactly for one seed.
SIM_METRICS = ["sim_p50_ms", "sim_p99_ms", "wire_bytes_per_op", "rpcs_per_op",
               "slo_attainment", "ok_ratio"]


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources at src/; run from a full checkout")
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr so stdout ends with the result.
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def clean_env():
    # The library reads GISQL_* knobs from the environment; a run must
    # not inherit any.
    return {k: v for k, v in os.environ.items() if not k.startswith("GISQL_")}


def run_binary(workload, seed, seconds, trace):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--trace-out",
                os.path.join(BUILD_DIR, "trace-%s-%d.json" % (workload, seed))]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=clean_env(), text=True,
                              stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark binary exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        fail("benchmark binary exited with code %d" % proc.returncode)
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line")
    if not result["correct"]:
        sys.stderr.write(proc.stdout)
        fail("output checks failed")
    return proc.stdout, lines, result


def selfcheck(seconds):
    ok = True
    for workload in WORKLOADS:
        _, first, a = run_binary(workload, 1, seconds, 0)
        _, second, b = run_binary(workload, 1, seconds, 0)
        run_binary(workload, 2, seconds, 0)
        digest = [[l for l in lines if l.startswith("sim:")] for lines in (first, second)]
        same = digest[0] == digest[1] and all(
            a["metrics"][m] == b["metrics"][m] for m in SIM_METRICS)
        print("%-15s same-seed simulated metrics %s" %
              (workload, "identical" if same else "DIFFER"))
        ok = ok and same
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args()
    if not args.selfcheck and args.workload is None:
        parser.error("--workload is required")
    build()
    if args.selfcheck:
        return selfcheck(args.seconds)
    stdout, _, _ = run_binary(args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
