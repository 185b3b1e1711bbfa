#!/usr/bin/env python3
"""Build and run the simulator benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep_compute --seed 1 \
        --seconds 20 --trace 0

The first run configures and builds perfbench/ (which compiles the
simulator library from src/) into $CARGO_TARGET_DIR, or .bench_build
when that is unset; later runs rebuild incrementally. The benchmark
program prints a human-readable block and, as its last line, one JSON
object {"correct", "attempted", "failed", "metrics"}. This script
passes that output through after checking that the last line parses,
and exits non-zero without printing a result if the build or the run
fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("sweep_compute", "sweep_memory", "serving_overload")
# A hung run is killed; a normal one takes well under a minute.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                           ".bench_build")


def child_env(bdir):
    """Environment that keeps compiler and program temp files inside
    the build directory."""
    tmp = os.path.join(bdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env["TMPDIR"] = tmp
    return env


def build(bdir, deadline):
    """Configure (once) and build the benchmark; True on success."""
    os.makedirs(bdir, exist_ok=True)
    env = child_env(bdir)
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", bdir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               env=env,
                               timeout=max(1, deadline - time.time()))
        except (OSError, subprocess.TimeoutExpired) as e:
            print(f"perfbench: build step failed: {e}", file=sys.stderr)
            return False
        if r.returncode != 0:
            print(f"perfbench: {' '.join(cmd)} exited {r.returncode}",
                  file=sys.stderr)
            return False
    return True


def parse_result(line):
    """The result object, or None if the line is not a valid one."""
    try:
        res = json.loads(line)
    except ValueError:
        return None
    if not isinstance(res, dict) or set(res) != {
            "correct", "attempted", "failed", "metrics"}:
        return None
    if not isinstance(res["metrics"], dict) or res["attempted"] < 1:
        return None
    return res


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    bdir = build_dir()
    if not build(bdir, time.time() + BUILD_TIMEOUT_S):
        return 1

    work = os.path.join(bdir, f"work-{os.getpid()}")
    spans_dir = os.path.join(bdir, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    cmd = [os.path.join(bdir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", work,
           "--spans", os.path.join(
               spans_dir, f"{args.workload}-seed{args.seed}.json")]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           env=child_env(bdir), timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
    out = r.stdout.decode(errors="replace").rstrip("\n").splitlines()
    if r.returncode != 0 or not out or parse_result(out[-1]) is None:
        sys.stderr.write("\n".join(out) + "\n")
        print(f"perfbench: run failed (exit {r.returncode})",
              file=sys.stderr)
        return r.returncode or 1
    sys.stdout.write("\n".join(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
