#!/usr/bin/env python3
"""Runs one workload over several seeds and reports each metric's spread.

    python3 perfbench/spread.py --workload memory-bound --seeds 1-10 [--trace 0]

For every metric it prints the median over the seeds and the distance
between the first and third quartile as a share of the median, next to the
metric's bound from BENCHMARK.json.  Run from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (the benchmark's own spec)


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=run.RUN_SECONDS)
    args = parser.parse_args()

    samples = {}
    for seed in parse_seeds(args.seeds):
        out = subprocess.run(
            [sys.executable, str(Path(run.__file__)), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(out.stdout.splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: correct=false")
        for name, metric in result["metrics"].items():
            samples.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: wall_s={result['metrics'].get('wall_s', {}).get('value')}",
              file=sys.stderr)

    bounds = {name: bound for name, _, _, bound in run.END_TO_END}
    print(f"{'metric':32} {'median':>14} {'iqr/median':>11} {'bound':>6}")
    for name, values in samples.items():
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        share = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        print(f"{name:32} {med:14.6g} {share:11.4f} {bound if bound else '':>6}")


if __name__ == "__main__":
    main()
