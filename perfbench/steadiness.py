#!/usr/bin/env python3
"""Runs workloads N times with different seeds and reports each metric's spread.

    python3 perfbench/steadiness.py [--workload NAME ...] [--runs 10]
                                    [--first-seed 1] [--seconds S]

For every workload and every metric it prints the median, the quartiles
(statistics.quantiles(values, n=4)), the quartile spread (Q3 - Q1) / median
and the full spread (max - min) / median, next to the metric's bound from
BENCHMARK.json. A metric is marked "ok" when its quartile spread is below a
third of its bound, "WIDE" when it is within the bound but above a third,
and "OVER" when it exceeds the bound (setup_s is only compared by median,
so its spread is reported but not marked). Runs are sequential: run nothing
else heavy meanwhile.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          cwd=ROOT)
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit("%s seed %d failed (exit %d)" % (workload, seed, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall


def spread_rows(values_by_metric, bounds):
    rows = []
    for name, values in values_by_metric.items():
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        iqr = (q3 - q1) / med if med else float("inf")
        full = (max(values) - min(values)) / med if med else float("inf")
        bound = bounds.get(name)
        if name == "setup_s":
            mark = ""
        elif iqr < bound / 3:
            mark = "ok"
        elif iqr <= bound:
            mark = "WIDE"
        else:
            mark = "OVER"
        rows.append((name, med, q1, q3, iqr, full, bound, mark))
    return rows


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append",
                    help="workload name (repeatable; default: every workload)")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args()

    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for w in workloads:
        values, walls = {}, []
        for i in range(args.runs):
            result, wall = run_once(w, args.first_seed + i, args.seconds)
            walls.append(wall)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print("== %s: %d runs, seeds %d..%d, %.1f s wall per run (max %.1f s)" %
              (w, args.runs, args.first_seed, args.first_seed + args.runs - 1,
               statistics.median(walls), max(walls)))
        print("%-34s %14s %14s %14s %8s %8s %6s %5s" %
              ("metric", "median", "q1", "q3", "iqr/med", "max-min", "bound", ""))
        for name, med, q1, q3, iqr, full, bound, mark in spread_rows(values, bounds):
            print("%-34s %14.6g %14.6g %14.6g %8.4f %8.4f %6s %5s" %
                  (name, med, q1, q3, iqr, full, bound, mark))
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
