#!/usr/bin/env python3
"""Measure one Spider benchmark workload from a source checkout.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds benchmark/build/spider_bench (Release) from ../src if needed, then
runs fresh spider_bench processes for S seconds, one seed per process
derived from N. With --trace 1 every seed runs twice, plain and traced, so
the tracing overhead can be reported. Prints the median of every metric as
one JSON line each ({"workload", "metric", "value", "unit", "clock", "n",
"seed"}), then one summary line:

    {"correct": bool, "attempted": int, "failed": int,
     "metrics": {name: {"value": float, "unit": str}, ...}}

whose metrics are BENCHMARK.json's end_to_end list (--trace 0) or
per_layer list (--trace 1). Standard library only.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(BENCH_DIR, "build")
BINARY = os.path.join(BUILD_DIR, "spider_bench")

# Simulated-clock metrics aggregate over this many seeds only (plain runs,
# traced runs), so they are a pure function of --seed; host-clock metrics
# use every process that fits in --seconds.
FIXED_SEEDS = {0: 2, 1: 1}
RUN_TIMEOUT_S = 150


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "sim", "world.hpp")):
        fail(f"no Spider sources under {os.path.join(ROOT, 'src')}")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--parallel", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def spider_bench(workload, seed, trace):
    """One process; returns (exit code, {metric: line})."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed)] + (["--trace"] if trace else [])
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{' '.join(cmd)} timed out")
    sys.stderr.write(proc.stderr)
    lines = {}
    for text in proc.stdout.splitlines():
        line = json.loads(text)
        lines[line["metric"]] = line
    if not lines:
        fail(f"{' '.join(cmd)} exited {proc.returncode} without results")
    return proc.returncode, lines


def benchmark_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def median_lines(workload, seed, runs, fixed):
    """Median per metric across runs, sim-clock metrics over the first `fixed` only."""
    medians = {}
    for name in dict.fromkeys(k for r in runs for k in r):
        sample = [r[name] for r in runs if name in r]
        if sample[0]["clock"] == "sim":
            sample = [r[name] for r in runs[:fixed] if name in r] or sample
        values = [line["value"] for line in sample]
        medians[name] = {"workload": workload, "metric": name,
                         "value": statistics.median(values), "unit": sample[0]["unit"],
                         "clock": sample[0]["clock"], "n": len(values), "seed": seed}
    return medians


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    names = subprocess.run([BINARY, "--list"], capture_output=True, text=True).stdout.split()
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(names)}")
    wanted = benchmark_metrics(args.trace)

    fixed = FIXED_SEEDS[args.trace]
    plain, traced, codes = [], [], []
    start = time.monotonic()
    i = 0
    # Start another process only while it is expected to end within --seconds.
    while i < fixed or (time.monotonic() - start) * (i + 1) / i <= args.seconds:
        seed = args.seed * 1000 + i
        code, lines = spider_bench(args.workload, seed, trace=False)
        codes.append(code)
        plain.append(lines)
        if args.trace:
            code, lines = spider_bench(args.workload, seed, trace=True)
            codes.append(code)
            traced.append(lines)
        i += 1

    runs = traced if args.trace else plain
    medians = median_lines(args.workload, args.seed, runs, fixed)
    if args.trace:
        plain_cpu = statistics.median(r["cpu_s"]["value"] for r in plain)
        traced_cpu = medians["obs.cpu_s"]["value"]
        medians["obs.overhead"] = {"workload": args.workload, "metric": "obs.overhead",
                                   "value": traced_cpu / plain_cpu, "unit": "ratio",
                                   "clock": "wall", "n": len(runs), "seed": args.seed}
    for line in medians.values():
        print(json.dumps(line))

    missing = [m for m in wanted if m not in medians]
    if missing:
        fail(f"{args.workload} did not report {', '.join(missing)}")
    summary = {
        "correct": all(code == 0 for code in codes),
        "attempted": int(sum(r["arrivals"]["value"] for r in runs)),
        "failed": int(sum(r["failed"]["value"] for r in runs)),
        "metrics": {m: {"value": medians[m]["value"], "unit": medians[m]["unit"]} for m in wanted},
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
