#!/usr/bin/env python3
"""Builds the planner and the benchmark from source, then runs one workload.

    python3 lacbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 lacbench/run.py --selftest

Run from anywhere inside a checkout.  The build goes to
.bench_build/lacbench under the checkout root (configured once, then
rebuilt incrementally); run artifacts (traces, reports, event streams,
fingerprints) go to .bench_build/lacbench-out.  Build output and the
benchmark's notes go to stderr; stdout carries only the result line.

The metric names and units printed are checked against BENCHMARK.json:
end_to_end metrics without tracing, per_layer metrics with it.  Exit
status is the benchmark's own (0 ok, 1 a correctness check failed), or
nonzero without a result line when the build or the run cannot complete.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "lacbench"
OUT = ROOT / ".bench_build" / "lacbench-out"
BUILD_TIMEOUT_S = 850  # first run in a checkout compiles the planner
RUN_DEADLINE_S = 175   # a run (after an up-to-date build) ends within this
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(msg):
    print(f"lacbench: {msg}", file=sys.stderr, flush=True)


def build(target, deadline):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", target,
                  "-j", jobs])
    for cmd in steps:
        left = deadline - time.monotonic()
        if left <= 0:
            raise RuntimeError("build deadline passed")
        # Build chatter goes to stderr so stdout stays the result line.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=left, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"{' '.join(cmd[:2])} failed "
                               f"(exit {proc.returncode})")


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def check_result(line, trace):
    result = json.loads(line)
    if set(result) != RESULT_KEYS:
        raise ValueError(f"result keys {sorted(result)}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = expected_metrics(trace)
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        raise ValueError(f"metrics differ from BENCHMARK.json: missing "
                         f"{missing}, extra {extra}, or units differ")


def run_workload(args):
    start = time.monotonic()
    first = not (BUILD / "lacbench").exists()
    build("lacbench", start + (BUILD_TIMEOUT_S if first else 60))
    run_start = time.monotonic()
    cmd = [str(BUILD / "lacbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(OUT)]
    budget = RUN_DEADLINE_S - (0 if first else run_start - start)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=budget, check=False)
    lines = proc.stdout.strip().splitlines()
    if not lines or proc.returncode not in (0, 1):
        log(f"benchmark exited {proc.returncode} without a result")
        return proc.returncode or 70
    check_result(lines[-1], args.trace)
    print(lines[-1], flush=True)
    return proc.returncode


def selftest():
    build("lacbench_test", time.monotonic() + BUILD_TIMEOUT_S)
    return subprocess.run([str(BUILD / "lacbench_test")], check=False,
                          cwd=str(BUILD)).returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()
    try:
        if args.selftest:
            return selftest()
        if not args.workload:
            ap.error("--workload is required")
        return run_workload(args)
    except subprocess.TimeoutExpired as e:
        log(f"timed out: {e}")
    except (OSError, RuntimeError, ValueError, KeyError) as e:
        log(f"error: {e}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
