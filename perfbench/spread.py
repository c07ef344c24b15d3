#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workload <name> [--seeds 1-10] [--seconds <s>]

Runs perfbench/run.py once per seed (trace off) and prints, for every
end-to-end metric, the median of the runs and the distance between their
first and third quartile (statistics.quantiles, n=4) as a share of the
median, next to the metric's bound and a third of it.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seed_list(text):
    if "-" in text:
        first, last = (int(part) for part in text.split("-"))
        return list(range(first, last + 1))
    return [int(part) for part in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", type=seed_list)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    values = {}
    for seed in args.seeds:
        run = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, cwd=ROOT)
        if run.returncode != 0:
            sys.exit(f"seed {seed}: run failed\n{run.stdout}{run.stderr}")
        result = json.loads(run.stdout.splitlines()[-1])
        metrics = result["metrics"]
        print(f"seed {seed}: " + " ".join(f"{name}={m['value']:.6g}" for name, m in metrics.items()),
              flush=True)
        for name, m in metrics.items():
            values.setdefault(name, []).append(m["value"])

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"{'metric':<18} {'median':>12} {'spread':>8} {'bound':>6} {'bound/3':>8}")
    for name, series in values.items():
        middle = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / middle
        print(f"{name:<18} {middle:>12.6g} {spread:>8.3f} {bounds[name]:>6} "
              f"{bounds[name] / 3:>8.3f}")


if __name__ == "__main__":
    main()
