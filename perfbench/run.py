#!/usr/bin/env python3
"""Runs one benchmark workload and prints its result as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run builds the driver (the
repository's library from ../src plus perfbench/driver.cpp) under
.bench_build/; later runs reuse the build. The driver runs the workload,
checks the replicas' final state against what the clients were told, and
prints its metrics; this script keeps exactly the metrics BENCHMARK.json
declares for the mode (end_to_end for --trace 0, per_layer for --trace 1)
and prints

    {"correct": true, "attempted": N, "failed": N, "metrics": {...}}

as the last line of standard output. When the build fails, the output check
fails, or a declared metric is missing, it prints no result and exits 1.

With --trace 1 the driver also writes its spans to
.bench_build/spans/<workload>-<seed>.tsv, and the per-layer time per op
(summarize_spans.py) is printed to standard error.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD, "perfbench_driver")
DRIVER_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the driver; returns True on success."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("run.py: no src/ next to perfbench/; nothing to build")
        return False
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("run.py: build failed: " + " ".join(cmd))
            return False
    return os.path.isfile(DRIVER)


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--corrupt-replica", action="store_true",
                    help="self-test: damage one replica; the output check must fail")
    args = ap.parse_args()

    if not build():
        return 1
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    spans = None
    if args.trace:
        spans = os.path.join(ROOT, ".bench_build", "spans",
                             "%s-%d.tsv" % (args.workload, args.seed))
        os.makedirs(os.path.dirname(spans), exist_ok=True)
        cmd += ["--spans", spans]
    if args.corrupt_replica:
        cmd.append("--corrupt-replica")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run.py: driver exceeded %d s" % DRIVER_TIMEOUT_S)
        return 1
    if proc.returncode != 0:
        log("run.py: driver exited with %d; no result" % proc.returncode)
        return 1
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("run.py: driver printed no result line")
        return 1

    metrics = {}
    for m in declared_metrics(args.trace):
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            log("run.py: metric %s missing or not in %s" % (m["name"], m["unit"]))
            return 1
        metrics[m["name"]] = got
    if spans:
        subprocess.run([sys.executable, os.path.join(HERE, "summarize_spans.py"), spans],
                       stdout=sys.stderr)
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
