#!/usr/bin/env python3
"""Steadiness check for the benchmark: runs workloads repeatedly, with
seeds 1, 2, ... and BENCHMARK.json's run length, and prints each
end-to-end metric's median, quartiles and spread (quartile distance as
a share of the median), with the bound from BENCHMARK.json beside it.

Run from the root of a fedshare checkout:

    python3 perfbench/steady.py --runs 10 report_hetero serve_churn

Quartiles are statistics.quantiles(values, n=4). A metric is steady
when its spread stays well inside its bound; the bounds in
BENCHMARK.json are set from what this prints. The share of failed
operations must be the same in every run.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def one_run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                 f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    p = argparse.ArgumentParser()
    p.add_argument("workloads", nargs="*",
                   default=[w["name"] for w in bench["workloads"]])
    p.add_argument("--runs", type=int, default=10)
    args = p.parse_args()
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    for workload in args.workloads:
        values = {}
        failed_shares = set()
        for seed in range(1, args.runs + 1):
            result = one_run(workload, seed, seconds)
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: checks failed")
            failed_shares.add(result["failed"] / result["attempted"])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            shown = " ".join(f"{k}={v['value']:.4g}"
                             for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: attempted {result['attempted']} "
                  f"failed {result['failed']} {shown}", file=sys.stderr)
        print(f"\n{workload} ({args.runs} runs, {seconds} s each)")
        print(f"{'metric':28} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for name, v in values.items():
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            print(f"{name:28} {med:12.4f} {q1:12.4f} {q3:12.4f} "
                  f"{spread:8.3f} {'' if bound is None else bound:>6}")
        print(f"failed share per run: {sorted(failed_shares)}")


if __name__ == "__main__":
    main()
