#!/usr/bin/env python3
"""Runs each workload several times and reports how steady its metrics are.

    python3 s2bench/steady.py [--runs 10] [--workloads similarity,explore]
                              [--first-seed 1] [--seconds 25]

Each run gets its own seed (first-seed, first-seed + 1, ...) and reports the
end-to-end metrics (--trace 0); the script prints each run's start time,
wall time and values as it ends. For every metric the script then prints the
median, the first and third quartiles (statistics.quantiles with n=4), the
spread (q3 - q1) / median and the
metric's bound from BENCHMARK.json, plus the share of failed operations.
Run it from the checkout root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    for workload in args.workloads.split(","):
        values, failed_shares, wrong = {}, set(), 0
        for i in range(args.runs):
            seed = args.first_seed + i
            started = time.time()
            proc = subprocess.run(
                [sys.executable, os.path.join(here, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"],
                cwd=root, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}")
                print(proc.stdout[-2000:] + proc.stderr[-2000:])
                wrong += 1
                continue
            result = json.loads(lines[-1])
            wrong += not result["correct"]
            failed_shares.add(f"{result['failed']}/{result['attempted']}"
                              if result["failed"] else "0")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed} at {time.strftime('%H:%M:%S', time.localtime(started))}"
                  f" ({time.time() - started:.0f} s): "
                  + " ".join(f"{name}={m['value']:.5g}" for name, m in result["metrics"].items()),
                  flush=True)
        print(f"\n{workload}: {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}, incorrect runs {wrong}, "
              f"failed shares {sorted(failed_shares)}")
        print(f"  {'metric':30s} {'median':>14s} {'q1':>14s} {'q3':>14s} "
              f"{'spread':>8s} {'bound':>6s}")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                flag = "ok" if spread <= bound / 3 else ("wide" if spread <= bound else "OVER")
            print(f"  {name:30s} {med:14.3f} {q1:14.3f} {q3:14.3f} {spread:8.4f} "
                  f"{bound if bound is not None else '':>6} {flag}")


if __name__ == "__main__":
    sys.exit(main())
