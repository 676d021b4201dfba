#!/usr/bin/env python3
"""Spread report: run workloads k times each and compare spreads with the bounds.

    python3 perfbench/spread.py --runs 10 [--sets 2] [--workload serve-dna ...]
                                [--first-seed 1]

Each run goes through perfbench/run.py with its own seed (first-seed,
first-seed+1, ...) and BENCHMARK.json's run_seconds. Per workload and
metric it prints the median, the quartiles (statistics.quantiles, n=4), the
min and max, and the spread (Q3 - Q1) / median against the metric's bound.
A spread over the bound is flagged; so is, with --sets 2, a second-set
median worse than the first by more than the bound. setup_s is exempt from
the spread flag, as the bound applies to its median shift only. The exit
code is 1 when anything is flagged or a run fails.
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
    try:
        return proc.returncode, json.loads(proc.stdout.strip().split("\n")[-1])
    except ValueError:
        return proc.returncode or 1, None


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "min": min(values),
            "max": max(values),
            "spread": (q3 - q1) / med if med else float("inf")}


def worse_by(first, second, better):
    """Share by which the second median is worse than the first."""
    if first == 0:
        return 0.0
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = bench["end_to_end"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    flagged = False
    for workload in workloads:
        sets = []
        for s in range(args.sets):
            values = {m["name"]: [] for m in metrics}
            for r in range(args.runs):
                seed = args.first_seed + s * args.runs + r
                code, result = run_once(workload, seed, bench["run_seconds"])
                if result is None:
                    print("FAIL %s seed %d: exit %d, no result" %
                          (workload, seed, code))
                    return 1
                if code != 0 or not result["correct"] or result["failed"]:
                    print("FAIL %s seed %d: exit %d, correct=%s, failed=%s"
                          % (workload, seed, code, result["correct"],
                             result["failed"]))
                    flagged = True
                for m in metrics:
                    values[m["name"]].append(result["metrics"][m["name"]]["value"])
            sets.append(values)
        print("\n%s: %d runs x %d set(s), %d s each" %
              (workload, args.runs, args.sets, bench["run_seconds"]))
        print("  %-30s %12s %12s %12s %12s %12s %8s %6s" %
              ("metric", "median", "q1", "q3", "min", "max", "spread", "bound"))
        for m in metrics:
            bound = m["bound"]
            for s, values in enumerate(sets):
                st = summarize(values[m["name"]])
                note = ""
                if m["name"] != "setup_s" and st["spread"] > bound:
                    note = "  SPREAD OVER BOUND"
                    flagged = True
                elif st["spread"] > bound / 3:
                    note = "  (over a third of the bound)"
                label = m["name"] + (" [set %d]" % (s + 1) if args.sets > 1 else "")
                print("  %-30s %12.6g %12.6g %12.6g %12.6g %12.6g %8.4f %6s%s" %
                      (label, st["median"], st["q1"], st["q3"], st["min"],
                       st["max"], st["spread"], "%.2f" % bound, note))
            if args.sets == 2:
                first = statistics.median(sets[0][m["name"]])
                second = statistics.median(sets[1][m["name"]])
                shift = worse_by(first, second, m["better"])
                verdict = "MEDIAN WORSE BY MORE THAN BOUND" if shift > bound else "ok"
                if shift > bound:
                    flagged = True
                print("  %-30s second median worse by %+.4f: %s" %
                      (m["name"], shift, verdict))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
