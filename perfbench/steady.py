#!/usr/bin/env python3
"""Steadiness report: runs each workload N times and prints, per metric,
the median, the quartiles and the spread (interquartile range / median).

    python3 perfbench/steady.py --runs 10 --sets 2        # every workload, two sets
    python3 perfbench/steady.py --runs 5 --workloads serve-mapped
    python3 perfbench/steady.py --runs 3 --trace          # also traced runs: overhead + per-layer

Run from the repository root. The benchmark command, run length, workloads
and bounds come from BENCHMARK.json. Set s of a workload uses seeds
--seed-base + s * runs + i, so every set has seeds of its own. A spread is
flagged when it is not below a third of the metric's bound. With --sets 2,
each end-to-end metric's second-set median is compared with the first's,
and flagged when it is worse by more than the bound. With --trace, each
workload is also run traced on the first set's seeds, and the tracing
overhead is the traced median of each timed end-to-end metric over the
untraced one, minus one.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    t0 = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(lines[-1])
    return result, wall


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_set(bench, name, seeds, trace, units, bounds):
    """Runs `name` once per seed, prints the table; returns (medians, flagged)."""
    seconds = bench["run_seconds"]
    values, shares, walls, correct = {}, set(), [], True
    for seed in seeds:
        result, wall = run_once(bench["command"], name, seed, seconds, trace)
        walls.append(wall)
        correct &= bool(result["correct"])
        shares.add(f"{result['failed']}/{result['attempted']}" if result["failed"] else "0")
        for metric, v in result["metrics"].items():
            values.setdefault(metric, []).append(v["value"])
    label = "traced" if trace else "untraced"
    print(f"\n== {name} ({label}, seeds {seeds[0]}..{seeds[-1]}, {seconds} s, wall median "
          f"{statistics.median(walls):.1f} s, max {max(walls):.1f} s, correct={correct}, "
          f"failed share {', '.join(sorted(shares))})")
    print(f"{'metric':36} {'unit':7} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
    medians, flagged = {}, 0
    for metric, vals in values.items():
        q1, med, q3 = quartiles(vals)
        medians[metric] = med
        spread = (q3 - q1) / med if med else 0.0
        bound = None if trace else bounds.get(metric)
        flag = ""
        if bound is not None and spread >= bound / 3:
            flag = "  <-- not below bound/3"
            flagged += 1
        bound_s = f"{bound:.2f}" if bound is not None else ""
        print(f"{metric:36} {units.get(metric, ''):7} {med:14.6g} {q1:14.6g} {q3:14.6g} "
              f"{spread:8.4f} {bound_s:>6}{flag}")
    return medians, flagged


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1, help="sets of --runs runs; 2 compares their medians")
    ap.add_argument("--workloads", default="", help="comma-separated subset (default: all)")
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--trace", action="store_true", help="also run traced, report overhead and per-layer medians")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = [n for n in args.workloads.split(",") if n]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}

    flagged = 0
    for name in names:
        sets = []
        for s in range(args.sets):
            seeds = [args.seed_base + s * args.runs + i for i in range(args.runs)]
            medians, f = run_set(bench, name, seeds, False, units, bounds)
            sets.append(medians)
            flagged += f
        for s in range(1, len(sets)):
            print(f"-- {name} set {s + 1} median vs set 1 median (worse by more than the bound is flagged)")
            for metric, first in sets[0].items():
                later = sets[s][metric]
                change = later / first - 1 if first else 0.0
                worse = change if better[metric] == "lower" else -change
                flag = ""
                if worse > bounds[metric]:
                    flag = "  <-- worse by more than the bound"
                    flagged += 1
                print(f"   {metric:34} {first:14.6g} -> {later:14.6g}  {change:+8.2%}{flag}")
        if args.trace:
            seeds = [args.seed_base + i for i in range(args.runs)]
            traced, _ = run_set(bench, name, seeds, True, units, bounds)
            print(f"-- {name} tracing overhead (traced median / untraced median - 1)")
            for e2e in ["query_exact_p50_us", "query_skip_p50_us", "add_p50_us"]:
                plain = sets[0][e2e]
                t = traced["trace." + e2e]
                print(f"   {e2e:30} {plain:12.6g} -> {t:12.6g}  {t / plain - 1:+.2%}")
    print(f"\n{flagged} flag(s)")


if __name__ == "__main__":
    main()
