#!/usr/bin/env python3
"""Builds and runs the LoWino benchmark (perfbench).

Run from the repository root:

    python3 perfbench/run.py --workload table2-layers --seed 1 --seconds 20 --trace 0

Workloads: table2-layers, session-zoo (see perfbench/README.md).
--trace 0 prints the end-to-end metrics of the named workload; --trace 1 the
per-layer metrics of every program area plus the named workload's tracing
overhead, and writes the spans to the build directory. The fixed workload
parameters are constants in perfbench/src/harness.h; the binary prints them.

The harness is configured and built with CMake into $CARGO_TARGET_DIR
(default .bench_build)/perfbench; build output goes to stderr. The last line
of standard output is the run's JSON result. A host fingerprint line (with
the binary's fixed parameters) is printed before it and every result is
appended to results.jsonl in the build directory.
"""
import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("table2-layers", "session-zoo")


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def read(path):
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return ""


def git_commit():
    """The checked-out commit, read from .git without running git."""
    head = read(os.path.join(ROOT, ".git", "HEAD"))
    if head.startswith("ref: "):
        ref = head[5:]
        commit = read(os.path.join(ROOT, ".git", ref))
        if not commit:
            for line in read(os.path.join(ROOT, ".git", "packed-refs")).splitlines():
                if line.endswith(" " + ref):
                    commit = line.split()[0]
        return commit or "unknown"
    return head or "unknown"


def fingerprint(args, params):
    cpu = ""
    flags = set()
    for line in read("/proc/cpuinfo").splitlines():
        key, _, value = line.partition(":")
        if key.strip() == "model name" and not cpu:
            cpu = value.strip()
        if key.strip() == "flags" and not flags:
            flags = set(value.split())
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = read(os.path.join(base, index, "level"))
        kind = read(os.path.join(base, index, "type"))
        if kind in ("Unified", "Data") and level in ("2", "3"):
            caches["L" + level] = read(os.path.join(base, index, "size"))
    return {
        "cpu": cpu or platform.processor(),
        "nproc": nproc(),
        "l2": caches.get("L2", "unknown"),
        "l3": caches.get("L3", "unknown"),
        "avx512_vnni": "avx512_vnni" in flags,
        "amx_int8": "amx_int8" in flags,
        "amx_tile": "amx_tile" in flags,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **params,
        "commit": git_commit(),
    }


def build(build_dir):
    """Configures and builds the harness (both incremental); returns the binary path."""
    subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", str(nproc()), "--target", "perfbench"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build_dir = os.path.join(target, "perfbench")
    try:
        binary = build(build_dir)
    except subprocess.CalledProcessError as e:
        print(f"perfbench: build failed ({e})", file=sys.stderr)
        return 2

    trace_out = os.path.join(build_dir, f"trace-{args.workload}-{args.seed}.json")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--trace-out", trace_out]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        print(f"perfbench: run failed with exit code {proc.returncode}", file=sys.stderr)
        return proc.returncode or 1
    result = json.loads(lines[-1])
    params = next((json.loads(line)["params"] for line in lines
                   if line.startswith('{"params"')), {})
    host = fingerprint(args, params)
    with open(os.path.join(build_dir, "results.jsonl"), "a") as f:
        f.write(json.dumps({"host": host, "result": result}) + "\n")
    for line in lines[:-1]:
        if not line.startswith('{"params"'):
            print(line)
    print(json.dumps({"host": host}))
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
