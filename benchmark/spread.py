#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, the way the driver takes it.

Runs BENCHMARK.json's command ten times per workload, each time with another
seed, and prints for each metric the distance between the first and third
quartile of its ten values as a share of their median, next to the metric's
bound. A benchmark is steady when every spread is below a third of its bound.

    python3 benchmark/spread.py [--runs 10] [--first-seed 1] [--workload NAME]... [--save DIR]

Run it from the repo root; it builds on first use like the driver does.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--save", help="keep each run's full output in this directory")
    args = ap.parse_args()

    manifest = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    workloads = args.workload or [w["name"] for w in manifest["workloads"]]
    worst = 0.0
    for workload in workloads:
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = manifest["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(manifest["run_seconds"]), "--trace", "0",
            ]
            out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
            if args.save:
                os.makedirs(args.save, exist_ok=True)
                with open(os.path.join(args.save, f"{workload}.{seed}.txt"), "w") as f:
                    f.write(out)
            result = json.loads(out.strip().splitlines()[-1])
            assert result["correct"] and result["failed"] == 0, result
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            share = spread / bounds[name]
            if name != "setup_s":
                worst = max(worst, share)
            print(f"{workload:<15} {name:<13} median {med:>14.6f}  spread {spread:6.3f}"
                  f"  bound {bounds[name]:.2f}  spread/bound {share:5.2f}", flush=True)
    print(f"worst spread/bound (setup_s aside): {worst:.2f}")
    return 0 if worst <= 1.0 else 1


if __name__ == "__main__":
    sys.exit(main())
