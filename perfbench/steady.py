#!/usr/bin/env python3
"""Steadiness mode: how much do the benchmark's figures move run to run?

Runs every workload several times, each run a fresh process through
run.py, alternating the workload order from one round to the next and
cycling through the given seeds. Prints, per workload and metric, the
median, the quartiles and the spread (interquartile distance over the
median, as statistics.quantiles(values, n=4) gives the quartiles), plus
the share of failed operations. Run from the repository root:

    python3 perfbench/steady.py --runs 10 --seeds 1,2
    python3 perfbench/steady.py --runs 10 --seeds 1,2,3,4,5,6,7,8,9,10 --bounds BENCHMARK.json

With --bounds BENCHMARK.json it also marks every end-to-end spread that
exceeds a third of the metric's bound, and every one that exceeds the
bound itself.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"steady: {workload} seed {seed} exited {proc.returncode}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per workload")
    ap.add_argument("--seeds", default="1,2", help="comma-separated seeds, cycled through")
    ap.add_argument("--seconds", type=int, default=10, help="run length (BENCHMARK.json's run_seconds)")
    ap.add_argument("--bounds", help="BENCHMARK.json whose end_to_end bounds to compare with")
    args = ap.parse_args()

    seeds = [int(s) for s in args.seeds.split(",")]
    workloads = ["paper", "serve", "tiered"]
    results = {w: [] for w in workloads}
    for i in range(args.runs):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            seed = seeds[i % len(seeds)]
            res = run_once(w, seed, args.seconds)
            res["seed"] = seed
            results[w].append(res)
            print(f"steady: run {i + 1}/{args.runs} {w} seed {seed} done", file=sys.stderr)

    bounds = {}
    if args.bounds:
        with open(args.bounds) as f:
            bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    for w in workloads:
        runs = results[w]
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"\n{w}: {len(runs)} runs, seeds {sorted({r['seed'] for r in runs})}, "
              f"failed share {shares}, all correct: {all(r['correct'] for r in runs)}")
        print(f"  {'metric':28s} {'unit':8s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}")
        for name in sorted(runs[0]["metrics"]):
            vals = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            mark = ""
            if name in bounds and spread > bounds[name]:
                mark = f"  > BOUND ({bounds[name]:.3f})"
            elif name in bounds and spread > bounds[name] / 3:
                mark = f"  > bound/3 ({bounds[name] / 3:.3f})"
            unit = runs[0]["metrics"][name]["unit"]
            print(f"  {name:28s} {unit:8s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f}{mark}")


if __name__ == "__main__":
    main()
