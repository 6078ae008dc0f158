#!/usr/bin/env bash
# Build the benchmark, then run every workload RUNS times plain and RUNS
# times traced (--trace 1), appending everything to one results file whose
# first line is the host fingerprint.
#
#   benchmark/run.sh [RUNS] [OUT] [SECONDS]
#
# RUNS defaults to 5, SECONDS (per run) to BENCHMARK.json's run_seconds,
# OUT to benchmark/results/<date>-<sha>.jsonl. Run i uses seed i, so two
# results files of the same commit differ only in host-clock noise; compare
# them with benchmark/compare.py.
set -euo pipefail
cd "$(dirname "$0")/.."

runs=${1:-5}
sha=$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
out=${2:-benchmark/results/$(date +%Y%m%d-%H%M%S)-$sha.jsonl}
seconds=${3:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}

cmake -S benchmark -B benchmark/build -DCMAKE_BUILD_TYPE=Release >&2
cmake --build benchmark/build --parallel 4 >&2
bench=benchmark/build/spider_bench

mkdir -p "$(dirname "$out")"
printf '{"host": %s, "git_sha": "%s", "runs": %s, "seconds": %s}\n' \
  "$($bench --host)" "$sha" "$runs" "$seconds" >> "$out"
for workload in $($bench --list); do
  for trace in 0 1; do
    for seed in $(seq 1 "$runs"); do
      echo "$workload trace=$trace seed=$seed" >&2
      python3 benchmark/run.py --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace "$trace" >> "$out"
    done
  done
done
echo "results: $out" >&2
