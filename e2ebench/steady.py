#!/usr/bin/env python3
"""Steadiness check: runs one workload N times, each with another seed.

    python3 e2ebench/steady.py --workload service_mix --runs 10 [--first-seed 1]

For every metric it prints the median, the quartiles (Python's
statistics.quantiles(values, n=4)) and the spread (Q3 - Q1) / median
against the bound in BENCHMARK.json. A spread above the bound is flagged
FAIL, one above a third of it WARN; setup_s has no spread rule. With
--trace 1 it reports the per-layer metrics, which have no bounds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in
              bench["per_layer" if args.trace else "end_to_end"]}

    values = {}
    for i in range(args.runs):
        seed = args.first_seed + i
        command = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
        run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True)
        if run.returncode != 0:
            sys.stderr.write(run.stderr)
            sys.exit(f"error: seed {seed} exited with code {run.returncode}")
        lines = run.stdout.splitlines()
        result = json.loads(lines[-1])
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} " +
              " ".join(f"{k}={v['value']:.4g}"
                       for k, v in result["metrics"].items()),
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    failed = False
    print(f"\n{args.workload}, {args.runs} runs")
    print(f"{'metric':32} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        q1, median, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s":
            if spread > bound:
                flag, failed = "FAIL", True
            elif spread > bound / 3:
                flag = "WARN"
        print(f"{name:32} {median:14.6g} {q1:14.6g} {q3:14.6g} "
              f"{spread:8.2%} {bound if bound is not None else '-':>6} {flag}")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
