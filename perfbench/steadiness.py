#!/usr/bin/env python3
"""Steadiness evidence for the repository benchmark.

    python3 perfbench/steadiness.py [--runs 10] [--sets 2] [--workload NAME]...

Run from the repository root.  For each set, runs every selected workload
--runs times through perfbench/run.py for BENCHMARK.json's run_seconds, one
seed per run (seeds 1..runs in every set), and prints for every end-to-end
metric the median, the quartiles (statistics.quantiles, n=4) and the spread
IQR/median.  Then checks what the benchmark's bounds promise:
  - each spread stays within the metric's bound;
  - each set's median differs from the first set's by no more than the
    bound, in either direction: two sets of the same code must agree, so a
    set that reads better is as much a failure as one that reads worse.
Exits 1 if a check fails or a run is incorrect.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def load_benchmark():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    result = json.loads(lines[-1])
    return result if result["correct"] else None


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3, (q3 - q1) / q2 if q2 else float("inf")


def drift(base, new):
    """Relative change of `new` against `base`."""
    return (new - base) / base if base else 0.0


def main():
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--workload", action="append", choices=names)
    args = ap.parse_args()
    workloads = args.workload or names
    metrics = bench["end_to_end"]

    ok = True
    medians = {}  # (set, workload, metric) -> median
    for s in range(args.sets):
        for w in workloads:
            values = {m["name"]: [] for m in metrics}
            for i in range(args.runs):
                seed = i + 1
                result = run_once(w, seed, bench["run_seconds"])
                if result is None:
                    print(f"set {s + 1} {w} seed {seed}: run failed or incorrect", flush=True)
                    ok = False
                    continue
                for m in metrics:
                    values[m["name"]].append(result["metrics"][m["name"]]["value"])
            print(f"\nset {s + 1}  {w}  ({len(values[metrics[0]['name']])} runs)")
            print(f"  {'metric':<14} {'median':>14} {'q1':>14} {'q3':>14} {'iqr/med':>8} "
                  f"{'bound':>6}  verdict")
            for m in metrics:
                v = values[m["name"]]
                if len(v) < 2:
                    continue
                med, q1, q3, spread = summarize(v)
                medians[(s, w, m["name"])] = med
                verdict = "ok"
                if spread > m["bound"]:
                    verdict = "SPREAD > BOUND"
                    ok = False
                elif spread > m["bound"] / 3:
                    verdict = "ok (spread > bound/3)"
                if s > 0 and (0, w, m["name"]) in medians:
                    d = drift(medians[(0, w, m["name"])], med)
                    if abs(d) > m["bound"]:
                        verdict += f"; MEDIAN {d:+.1%} VS SET 1"
                        ok = False
                    else:
                        verdict += f"; vs set 1 {d:+.1%}"
                print(f"  {m['name']:<14} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                      f"{spread:>8.3f} {m['bound']:>6}  {verdict}", flush=True)
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
