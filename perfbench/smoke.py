#!/usr/bin/env python3
"""Smoke test of the benchmark: one short untraced run per workload and one
short traced run. Asserts that every metric BENCHMARK.json names is printed
with its unit and a finite value, and that every output check passed.
Exits non-zero on the first violation. Setup still runs in full, so it takes
a few minutes.

    python3 perfbench/smoke.py
"""
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(bench, workload, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", "1", "--seconds", "1",
                              "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def check(result, expected, label):
    problems = []
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{label}: checks failed ({result['failed']} of "
                        f"{result['attempted']} operations)")
    for m in expected:
        got = result["metrics"].get(m["name"])
        if got is None:
            problems.append(f"{label}: {m['name']} missing")
        elif got["unit"] != m["unit"] or not math.isfinite(got["value"]):
            problems.append(f"{label}: {m['name']} = {got}")
    extra = set(result["metrics"]) - {m["name"] for m in expected}
    if extra:
        problems.append(f"{label}: unlisted metrics {sorted(extra)}")
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    problems = []
    for w in bench["workloads"]:
        problems += check(run(bench, w["name"], 0), bench["end_to_end"], w["name"])
    first = bench["workloads"][0]["name"]
    problems += check(run(bench, first, 1), bench["per_layer"], first + " traced")
    for p in problems:
        print(p, file=sys.stderr)
    print("smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
