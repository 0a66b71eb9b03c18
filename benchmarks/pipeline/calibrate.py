"""Measure the benchmark's own run-to-run spread, per workload and metric.

    python3 benchmarks/pipeline/calibrate.py --seeds 1-10 [--sets 2] [--workload NAME]...

Runs ``run.py --workload W --seed S --trace 0`` once per (seed, workload),
alternating the workload order from one seed to the next, and prints a
Markdown table per set: each metric's median over the seeds, its spread
(interquartile range ÷ median, from ``statistics.quantiles(n=4)``) and
that spread as a share of the metric's bound.  With ``--sets 2`` the
whole procedure repeats and the table adds how far the second set's
median moved in the metric's worse direction, again against the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def parse_seeds(text: str):
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def run(workload: str, seed: int):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=180, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: output check failed")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    # values[set][workload][metric] -> one value per seed
    values = []
    for set_index in range(args.sets):
        values.append({w: {m["name"]: [] for m in metrics} for w in workloads})
        for turn, seed in enumerate(args.seeds):
            order = workloads if (turn + set_index) % 2 == 0 else workloads[::-1]
            for workload in order:
                started = time.perf_counter()
                for name, value in run(workload, seed).items():
                    values[-1][workload][name].append(value)
                print(f"set {set_index + 1} seed {seed} {workload}: "
                      f"{time.perf_counter() - started:.1f} s", file=sys.stderr)

    header = "| workload | metric | median | spread | spread/bound |"
    rule = "|---|---|---|---|---|"
    if args.sets > 1:
        header += " 2nd-set shift/bound |"
        rule += "---|"
    for set_index, table in enumerate(values):
        print(f"\nSet {set_index + 1}: seeds {args.seeds[0]}-{args.seeds[-1]}\n")
        print(header)
        print(rule)
        for workload in workloads:
            for metric in metrics:
                name, bound = metric["name"], metric["bound"]
                series = table[workload][name]
                median = statistics.median(series)
                row = (f"| {workload} | {name} | {median:.6g} | {spread(series):.2%} "
                       f"| {spread(series) / bound:.2f} |")
                if args.sets > 1:
                    first = statistics.median(values[0][workload][name])
                    change = (median - first) / first
                    worse = change if metric["better"] == "lower" else -change
                    row += f" {worse / bound:+.2f} |"
                print(row)
    print(json.dumps({"seeds": args.seeds, "values": values}), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
