#!/usr/bin/env python3
"""Compare Spider benchmark results.

    python3 benchmark/compare.py BASE.jsonl NEW.jsonl
        Reads two results files (JSON lines as written by run.sh or run.py)
        and prints per workload x metric the median and quartiles of each
        side. Runs are paired by seed, so seed-to-seed variation cancels:
        an end-to-end metric regresses when the median of its per-seed
        relative changes is worse than its bound, and is "unresolved" when
        the quartile distance of those changes exceeds the bound, unless
        every new run reads better than every base run. Exits 1 on any
        regression or unresolved metric.

    python3 benchmark/compare.py --ab PARENT_ROOT CHANGE_ROOT --workload W
                                 [--pairs 10] [--seconds S] [--seed 1]
        Runs benchmark/run.py in two checkouts as alternating parent/change
        pairs (the same seed within a pair, the order swapped every pair)
        and reports, per metric, both sides' median and quartiles and the
        fraction of pairs the change won. A gain is claimed only when the
        change wins at least nine tenths of the pairs (ties count for
        neither), the medians differ in its favour by more than the
        parent's quartile distance, and no more operations fail than at
        the parent.

Standard library only.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from collections import defaultdict

# End-to-end metrics: (better, bound). The bound is the share of the base
# median by which the metric may worsen; failed_frac may not worsen at all.
# Simulated-clock bounds assume same-seed comparisons, where those metrics
# repeat exactly (BENCHMARK.json carries looser cross-seed ones). Host-clock
# times drift by up to ~25% between runs on a shared host; compare them in
# pairs (--ab) to resolve smaller changes.
BOUNDS = {
    "setup_s": ("lower", 0.25),
    "wall_s": ("lower", 0.25),
    "cpu_s": ("lower", 0.25),
    "peak_rss_mb": ("lower", 0.10),
    "goodput_ops_s": ("higher", 0.02),
    "failed_frac": ("lower", 0.0),
    "write_p50_ms": ("lower", 0.05),
    "write_p90_ms": ("lower", 0.05),
    "write_p99_ms": ("lower", 0.05),
    "strong_p50_ms": ("lower", 0.05),
    "weak_p50_ms": ("lower", 0.05),
    "weak_p99_ms": ("lower", 0.05),
    "capacity_ops_s": ("higher", 0.03),
    "outage_s": ("lower", 0.05),
}
# Real-time latency on the socket deployment repeats less closely (its p99s
# vary by 15-45% between runs and are not reported at all).
WORKLOAD_BOUNDS = {
    ("loopback-mix", name): ("lower", 0.10)
    for name in ("write_p50_ms", "write_p90_ms", "strong_p50_ms", "weak_p50_ms")
}


def bound_of(workload, metric):
    return WORKLOAD_BOUNDS.get((workload, metric), BOUNDS.get(metric))


def load_results(path):
    """{(workload, metric): {seed: value}} from every metric line of a results
    file; a line without a seed is keyed by its position among its metric's lines."""
    out = defaultdict(dict)
    with open(path) as f:
        for text in f:
            text = text.strip()
            if not text:
                continue
            line = json.loads(text)
            if "metric" in line and line["value"] is not None:
                runs = out[(line["workload"], line["metric"])]
                runs[line.get("seed", len(runs))] = line["value"]
    return out


def summary(values):
    """(median, q1, q3) as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def worse_by(better, base, new):
    """Signed relative change, positive when `new` is worse."""
    delta = new - base if better == "lower" else base - new
    return delta / abs(base) if base else delta


def verdict(workload, metric, base, new):
    """`base` and `new` map seed -> value; returns (verdict, median change)."""
    rule = bound_of(workload, metric)
    seeds = sorted(set(base) & set(new))
    if rule is None or not seeds:
        return "info", None
    better, bound = rule
    change, q1, q3 = summary([worse_by(better, base[s], new[s]) for s in seeds])
    b, n = list(base.values()), list(new.values())
    if q3 - q1 > bound:
        all_better = max(n) < min(b) if better == "lower" else min(n) > max(b)
        return ("better" if all_better else "unresolved"), change
    if change > bound:
        return "REGRESSION", change
    return ("improved" if change < -bound else "ok"), change


def compare_files(base_path, new_path):
    base, new = load_results(base_path), load_results(new_path)
    failing = 0
    print(f"{'workload':<14} {'metric':<30} {'base median [q1, q3]':>32} "
          f"{'new median [q1, q3]':>32} {'worse by':>9}  verdict")
    for key in sorted(set(base) & set(new)):
        workload, metric = key
        v, change = verdict(workload, metric, base[key], new[key])
        failing += v in ("REGRESSION", "unresolved")
        b, n = summary(list(base[key].values())), summary(list(new[key].values()))
        worse = f"{change:+.1%}" if change is not None else ""
        print(f"{workload:<14} {metric:<30} {b[0]:>12.6g} [{b[1]:.6g}, {b[2]:.6g}]"
              f" {n[0]:>12.6g} [{n[1]:.6g}, {n[2]:.6g}] {worse:>9}  {v}")
    for key in sorted(set(base) ^ set(new)):
        print(f"{key[0]:<14} {key[1]:<30} only in {'base' if key in base else 'new'}")
    return 1 if failing else 0


def run_side(root, workload, seed, seconds):
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{root}: {' '.join(cmd)} failed:\n{proc.stderr}")
    values = {}
    for text in proc.stdout.splitlines():
        line = json.loads(text)
        if "metric" in line:
            values[line["metric"]] = line["value"]
    return values


def ab(parent, change, workload, pairs, seconds, seed):
    runs = {"parent": [], "change": []}
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            root = parent if side == "parent" else change
            runs[side].append(run_side(root, workload, seed + i, seconds))
        print(f"pair {i + 1}/{pairs} done", file=sys.stderr)

    # A gain does not count when more operations fail than at the parent.
    more_failures = (summary([r["failed_frac"] for r in runs["change"]])[0] >
                     summary([r["failed_frac"] for r in runs["parent"]])[0])
    print(f"{'metric':<20} {'parent median [q1, q3]':>32} {'change median [q1, q3]':>32} "
          f"{'wins':>6}  verdict")
    for metric, (better, _) in BOUNDS.items():
        if not all(metric in r for side in runs.values() for r in side):
            continue
        p = [r[metric] for r in runs["parent"]]
        c = [r[metric] for r in runs["change"]]
        wins = sum((cv < pv) if better == "lower" else (cv > pv) for pv, cv in zip(p, c))
        ps, cs = summary(p), summary(c)
        improvement = ps[0] - cs[0] if better == "lower" else cs[0] - ps[0]
        gain = wins >= 0.9 * pairs and improvement > ps[2] - ps[1] and not more_failures
        regression, _ = verdict(workload, metric, dict(enumerate(p)), dict(enumerate(c)))
        print(f"{metric:<20} {ps[0]:>12.6g} [{ps[1]:.6g}, {ps[2]:.6g}]"
              f" {cs[0]:>12.6g} [{cs[1]:.6g}, {cs[2]:.6g}] {wins:>3}/{pairs}"
              f"  {'gain' if gain else 'no gain'} ({regression})")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", help="base results file, or the parent checkout with --ab")
    ap.add_argument("new", help="new results file, or the change checkout with --ab")
    ap.add_argument("--ab", action="store_true", help="run alternating parent/change pairs")
    ap.add_argument("--workload")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    if not args.ab:
        return compare_files(args.base, args.new)
    if not args.workload or args.pairs < 10:
        ap.error("--ab needs --workload and at least 10 pairs")
    parent, change = os.path.abspath(args.base), os.path.abspath(args.new)
    seconds = args.seconds
    if seconds is None:
        with open(os.path.join(change, "BENCHMARK.json")) as f:
            seconds = json.load(f)["run_seconds"]
    return ab(parent, change, args.workload, args.pairs, seconds, args.seed)


if __name__ == "__main__":
    sys.exit(main())
