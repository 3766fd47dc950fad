#!/usr/bin/env python3
"""Checks that the benchmark is steady: runs one workload under several seeds
and reports, for each end-to-end metric, the median and the spread (distance
between the first and third quartile, as a share of the median) against the
metric's bound in BENCHMARK.json. A spread above a third of the bound is
flagged (setup_s is reported but not held to its bound).

    python3 perfbench/spread.py --workload session-zoo --seeds 1 2 3 4 5
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    values = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in args.seeds:
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(out.stdout.splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: output check failed", file=sys.stderr)
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.4g}"
                                          for k, v in result["metrics"].items()))
    steady = True
    for m in bench["end_to_end"]:
        v = values[m["name"]]
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4) if len(v) > 1 else [med, med, med]
        spread = (q[2] - q[0]) / med if med else float("inf")
        flag = "" if m["name"] == "setup_s" or spread < m["bound"] / 3 else "  <-- unsteady"
        steady = steady and not flag
        print(f"{m['name']:>14}: median {med:.4g} {m['unit']}, spread {spread:.3f} "
              f"(bound {m['bound']}){flag}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
