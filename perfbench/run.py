#!/usr/bin/env python3
"""Performance ledger: build the ledger from this checkout and run one workload.

    python3 perfbench/run.py --workload serve-dna --seed 1 --seconds 30 --trace 0

Builds perfbench/ (which compiles the swbpbc libraries from ../src) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, then runs one
workload from the checkout root. The ledger's stdout is passed through; its
last line is the result JSON. Exits non-zero when the build fails, the run
fails or times out, or any score disagrees with its reference.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configures once, then builds incrementally. Build output goes to stderr."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "ledger", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            return None
    return os.path.join(out, "ledger")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt-expected", action="store_true",
                        help="flip one reference score (gate self-test)")
    args = parser.parse_args()

    ledger = build()
    if ledger is None:
        return 2
    cmd = [ledger, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%s" % args.seconds, "--trace=%d" % args.trace,
           "--dir=.bench_run"]
    if args.corrupt_expected:
        cmd.append("--corrupt-expected")
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stdout.write(proc.stdout)
        sys.stderr.write("perfbench: the ledger printed no result line "
                         "(exit code %d)\n" % proc.returncode)
        return proc.returncode or 1
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0 or not result["correct"] or result["failed"]:
        return proc.returncode or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
