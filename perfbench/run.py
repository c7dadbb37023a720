#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds perfbench/ (which compiles the
simulator from src/) in Release mode under .bench_build/, runs one workload,
and prints the host context followed by one JSON result line:
{"correct", "attempted", "failed", "metrics"}.  Exits non-zero when the build
fails, an output check fails, or the run produces no result.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
BUILD = os.path.join(".bench_build", "cmake")
# Compiler and library temporary files stay inside the checkout too.
TMP = os.path.join(ROOT, ".bench_build", "tmp")
ENV = dict(os.environ, TMPDIR=TMP)
BINARY = os.path.join(BUILD, "pcd_perfbench")
WORKLOADS = ("paper_sweep", "service_replay")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then (re)builds; build output goes to stderr."""
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, env=ENV, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "perfbench", "CMakeLists.txt")):
        log("run from the repository root")
        return 2
    os.makedirs(TMP, exist_ok=True)
    if not build():
        return 1

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--work-dir", os.path.join(".bench_build", "work"),
           "--out-dir", os.path.join(".bench_build", "out")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=ENV, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=170)
    except subprocess.TimeoutExpired:
        log("benchmark timed out")
        return 1
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if not lines:
        log(f"benchmark printed nothing (exit {proc.returncode})")
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("last line is not JSON: " + lines[-1])
        return 1
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        log("malformed result: " + lines[-1])
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result, separators=(",", ":")))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
