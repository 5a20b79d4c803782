#!/usr/bin/env python3
"""Runs one workload with several seeds and reports run-to-run spread.

    python3 perfbench/spread.py --workload sql-wire [--runs 10]
        [--first-seed 1] [--seconds N] [--json out.json]
    python3 perfbench/spread.py --compare set1.json set2.json [set3.json ...]

Each run is `python3 perfbench/run.py --workload W --seed S --seconds N
--trace 0`, one after another. For every end-to-end metric of
BENCHMARK.json it prints the median, the quartiles (Python's
statistics.quantiles(values, n=4)) and the spread, (Q3 - Q1) / median,
next to the metric's bound; plus the share of failed ops. Exits non-zero
when a run fails, prints no result, or reports an incorrect output.

--compare reads sets written with --json and, for every pair of sets and
every end-to-end metric, prints how much worse each set's median is than
the other's, in both directions, against the bound; plus each set's spread.
It exits non-zero when a spread (other than setup_s's) or a worsening
exceeds its bound, or when the failed shares differ.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread_of(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def worsening(spec_metric, base, other):
    """Share by which `other`'s median is worse than `base`'s."""
    if spec_metric["better"] == "lower":
        return (other - base) / base
    return (base - other) / base


def compare(spec, paths):
    sets = [json.load(open(p)) for p in paths]
    ok = True
    for k, path in enumerate(paths):
        print("set %d: %s" % (k + 1, path))
    print("%-12s %-6s %12s %8s" % ("metric", "set", "median", "spread"))
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        medians = []
        for k, runs in enumerate(sets):
            median, _, _, spread = spread_of(
                [r["metrics"][name]["value"] for r in runs])
            medians.append(median)
            flag = ""
            if name != "setup_s" and spread > bound:
                flag, ok = "  > bound %.2f" % bound, False
            print("%-12s set %-2d %12.5g %8.3f%s" %
                  (name, k + 1, median, spread, flag))
        for i in range(len(sets)):
            for j in range(len(sets)):
                if i == j:
                    continue
                w = worsening(metric, medians[i], medians[j])
                flag = ""
                if w > bound:
                    flag, ok = "  > bound %.2f" % bound, False
                print("%-12s   set %d against set %d: %+.3f%s" %
                      (name, j + 1, i + 1, w, flag))
    shares = [sorted({r["failed"] / r["attempted"] for r in runs})
              for runs in sets]
    print("failed share per set: %s" % shares)
    if any(s != shares[0] for s in shares):
        ok = False
    return 0 if ok else 1


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    if len(sys.argv) > 1 and sys.argv[1] == "--compare":
        return compare(spec, sys.argv[2:])
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--json", help="also write the runs to this file")
    args = parser.parse_args()

    runs = []
    for i in range(args.runs):
        seed = args.first_seed + i
        start = time.time()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(args.seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        wall = time.time() - start
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print("seed %d: exit %d" % (seed, proc.returncode))
            return 1
        result = json.loads(lines[-1])
        result["seed"] = seed
        result["wall_s"] = wall
        runs.append(result)
        values = " ".join("%s=%.4g" % (k, v["value"])
                          for k, v in result["metrics"].items())
        print("seed %d (%.0f s): correct=%s attempted=%d failed=%d %s" %
              (seed, wall, result["correct"], result["attempted"],
               result["failed"], values), flush=True)
        if not result["correct"]:
            return 1

    print("\n%-12s %12s %12s %12s %8s %8s" %
          ("metric", "median", "q1", "q3", "spread", "bound"))
    for metric in spec["end_to_end"]:
        name = metric["name"]
        median, q1, q3, spread = spread_of(
            [r["metrics"][name]["value"] for r in runs])
        print("%-12s %12.5g %12.5g %12.5g %8.3f %8.3f" %
              (name, median, q1, q3, spread, metric["bound"]))
    shares = {r["failed"] / r["attempted"] for r in runs}
    print("failed share per run: %s" % sorted(shares))
    if args.json:
        with open(args.json, "w") as out:
            json.dump(runs, out, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
