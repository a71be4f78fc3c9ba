#!/usr/bin/env bash
# Runs the whole benchmark N times (default 5), run i with seed 7+i, and
# prints per workload and end-to-end metric the median over the runs, the
# range (max-min)/median, and the spread the driver judges: the distance
# between the first and third quartile (statistics.quantiles, n=4) as a
# share of the median.  Exits non-zero when a spread exceeds the metric's
# bound from BENCHMARK.json (setup_s excepted, as in the driver's rule).
#
# A metric that fails is fixed by a larger fixed batch or more rounds, not
# by dropping it.
set -euo pipefail
cd "$(dirname "$0")/.."
exec python3 - "${1:-5}" <<'PY'
import json, statistics, subprocess, sys

runs = int(sys.argv[1])
spec = json.load(open("BENCHMARK.json"))
workloads = [w["name"] for w in spec["workloads"]]
values = {}  # (workload, metric) -> [value per run]
for i in range(runs):
    for workload in workloads:
        command = spec["command"] + [
            "--workload", workload, "--seed", str(7 + i),
            "--seconds", str(spec["run_seconds"]), "--trace", "0",
        ]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        if done.returncode != 0:
            sys.exit(f"run {i} of {workload} exited with {done.returncode}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"run {i} of {workload}: {result['failed']} failed operations")
        for metric, reading in result["metrics"].items():
            values.setdefault((workload, metric), []).append(reading["value"])
        print(f"run {i} {workload}: {result['attempted']} operations, 0 failed", flush=True)

print(f"\n{'workload':<13} {'metric':<24} {'median':>14} {'unit':<5} {'range':>7} {'spread':>7} {'bound':>6}")
failed = 0
for workload in workloads:
    for metric in spec["end_to_end"]:
        sample = values[(workload, metric["name"])]
        median = statistics.median(sample)
        whole = (max(sample) - min(sample)) / median
        spread = 0.0
        if len(sample) >= 2:
            q = statistics.quantiles(sample, n=4)
            spread = (q[2] - q[0]) / median
        over = spread > metric["bound"] and metric["name"] != "setup_s"
        failed += over
        print(f"{workload:<13} {metric['name']:<24} {median:>14.4f} {metric['unit']:<5} "
              f"{whole:>7.2%} {spread:>7.2%} {metric['bound']:>6.0%}{'  OVER' if over else ''}")
print(f"\n{failed} of {len(workloads) * len(spec['end_to_end'])} spreads over their bound")
sys.exit(1 if failed else 0)
PY
