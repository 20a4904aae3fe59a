#!/usr/bin/env python3
"""Repeat hrmbench over several seeds and summarise each metric.

    python3 hrmbench/capture.py --workload serve-kv --runs 10 --seconds 30

Runs `bash hrmbench/run.sh` once per seed (first-seed, first-seed + 1, ...)
from the repository root and prints one JSON capture on standard output:
the host, toolchain and commit of the first run, the seeds, and for every
metric its unit, median, quartiles (Python's statistics.quantiles, n=4),
spread ((Q3 - Q1) / median) and the values in run order. The exit code is
1 if any run failed its output checks or printed no result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(root, workload, seed, seconds, trace):
    cmd = ["bash", "hrmbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        return None, None
    return json.loads(lines[-2])["capture"], json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2 to give quartiles")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    meta, values, units, ok = None, {}, {}, True
    for seed in seeds:
        capture, result = run_once(root, args.workload, seed, args.seconds, args.trace)
        if result is None or not result["correct"] or result["failed"]:
            sys.stderr.write(f"capture: seed {seed} failed\n")
            ok = False
            continue
        if meta is None:
            meta = {k: v for k, v in capture.items() if k not in ("seed", "details")}
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]

    summary = {}
    for name, xs in values.items():
        if len(xs) < 2:
            continue
        q1, med, q3 = statistics.quantiles(xs, n=4)
        summary[name] = {
            "unit": units[name], "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": xs,
        }
    json.dump({"capture": meta, "seeds": seeds, "correct": ok, "metrics": summary},
              sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
