#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny sizes.

Run from the root of a checkout:

    python3 perfbench/smoke.py

Builds the benchmark like run.py, then runs every workload untraced
and traced with --tiny (a 6k-cycle window and a handful of cases) and
checks that:
  - the last output line parses and every output check passed
    (this includes the decomposed replay matching Runner::run and the
    reference-engine cross-check);
  - every metric BENCHMARK.json names is printed, by name and with its
    unit, both in the JSON line and in the human-readable block, and
    no other metric is;
  - in the traced run's span dump no self time is negative or exceeds
    its span, every child lies inside its parent, and the top-level
    Runner::run / ServingDriver::run self times add up to trace.run_s.
Exits 0 when every check holds.
"""

import json
import os
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

ROOT_SPANS = {"sweep_compute": "runner.run", "sweep_memory": "runner.run",
              "serving_overload": "serving.run"}


def fail(msg):
    print(f"smoke: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_spans(path, workload, run_s):
    spans = json.load(open(path))["spans"]
    if not spans:
        fail(f"{workload}: empty span dump")
    for s in spans:
        dur = s["end_s"] - s["start_s"]
        if s["self_s"] < -1e-9 or s["self_s"] > dur + 1e-9:
            fail(f"{workload}: span {s['name']} self time outside "
                 f"[0, {dur}]")
        if s["parent"] >= 0:
            p = spans[s["parent"]]
            if s["start_s"] < p["start_s"] or s["end_s"] > p["end_s"]:
                fail(f"{workload}: span {s['name']} outside its parent")
    # The untraced pass records no spans, so every top-level span of
    # this name belongs to the traced pass's timed region.
    top = sum(s["self_s"] for s in spans
              if s["parent"] < 0 and s["name"] == ROOT_SPANS[workload])
    if not 0.95 * run_s <= top <= run_s * (1 + 1e-9):
        fail(f"{workload}: top-level self times {top} vs trace.run_s "
             f"{run_s}")


def main():
    bench = json.load(open("BENCHMARK.json"))
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    bdir = run.build_dir()
    if not run.build(bdir, time.time() + run.BUILD_TIMEOUT_S):
        fail("build failed")
    for w in bench["workloads"]:
        workload = w["name"]
        for trace in (0, 1):
            work = os.path.join(bdir, f"smoke-{os.getpid()}")
            spans = os.path.join(bdir, f"smoke-{workload}.json")
            cmd = [os.path.join(bdir, "perfbench"), "--workload", workload,
                   "--seed", "7", "--seconds", "1", "--trace", str(trace),
                   "--work", work, "--spans", spans, "--tiny"]
            r = subprocess.run(cmd, stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE,
                               env=run.child_env(bdir), timeout=170)
            tag = f"{workload} trace {trace}"
            if r.returncode != 0:
                fail(f"{tag}: exit {r.returncode}: "
                     f"{r.stderr.decode()[-2000:]}")
            lines = r.stdout.decode().strip().splitlines()
            res = run.parse_result(lines[-1]) if lines else None
            if res is None:
                fail(f"{tag}: last line is not a result")
            if not res["correct"] or res["failed"] != 0:
                fail(f"{tag}: {res['failed']} of {res['attempted']} "
                     f"checks failed: {r.stderr.decode()[-2000:]}")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != expected[trace]:
                missing = set(expected[trace]) - set(got)
                extra = set(got) - set(expected[trace])
                wrong = {k for k in set(got) & set(expected[trace])
                         if got[k] != expected[trace][k]}
                fail(f"{tag}: metrics differ: missing {sorted(missing)} "
                     f"extra {sorted(extra)} wrong unit {sorted(wrong)}")
            printed = {}
            for line in lines[:-1]:
                parts = line.split()
                if len(parts) == 4 and parts[0] == "metric":
                    printed[parts[1]] = parts[3]
            if printed != expected[trace]:
                fail(f"{tag}: human-readable block does not list every "
                     "metric with its unit")
            for k, v in res["metrics"].items():
                if not isinstance(v["value"], (int, float)):
                    fail(f"{tag}: {k} is not a number")
            if trace:
                check_spans(spans, workload,
                            res["metrics"]["trace.run_s"]["value"])
                os.remove(spans)
            print(f"smoke: ok {tag} ({len(got)} metrics, "
                  f"{res['attempted']} checks)")
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
