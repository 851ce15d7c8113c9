#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Short runs (--seconds 1) through run.py of every BENCHMARK.json workload and
of the ungated net workload:
  * two runs of a sim workload with one seed print identical virtual-time
    metrics (everything but peak_rss_mb, which is the process's memory);
  * every declared metric is printed, with its declared unit, in both the
    untraced (end_to_end) and the traced (per_layer) mode;
  * every workload and metric name matches [A-Za-z0-9_.-]+;
  * the output check fires (no result, non-zero exit) when one replica's
    MapStateMachine is corrupted through ServiceClient::state_machine(g, r).
"""
import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "1"

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SIM_WORKLOADS = [w for w in WORKLOADS if w.startswith("sim-")]
# Runnable but not gated (BENCHMARK.md): held to the same output contract.
ALL_WORKLOADS = WORKLOADS + ["net-mpaxos-ycsba"]


def run(workload, seed, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace), *extra]
    return subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          cwd=ROOT)


def result(workload, seed, trace):
    proc = run(workload, seed, trace)
    if proc.returncode != 0:
        raise AssertionError("%s failed:\n%s" % (workload, proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


class BenchmarkSelfTest(unittest.TestCase):
    def test_names_are_well_formed(self):
        names = WORKLOADS + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        for name in names:
            self.assertRegex(name, r"^[A-Za-z0-9_.-]+$")
        self.assertEqual(len(names), len(set(names)))

    def test_sim_runs_repeat_exactly_per_seed(self):
        for w in SIM_WORKLOADS:
            a = result(w, 7, 0)["metrics"]
            b = result(w, 7, 0)["metrics"]
            for name in a:
                if name == "peak_rss_mb":
                    continue
                self.assertEqual(a[name], b[name], "%s %s" % (w, name))

    def test_every_declared_metric_is_printed_with_its_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m["unit"] for m in SPEC[key]}
            for w in ALL_WORKLOADS:
                out = result(w, 3, trace)
                self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(out["correct"])
                self.assertGreaterEqual(out["attempted"], 1)
                got = {n: m["unit"] for n, m in out["metrics"].items()}
                self.assertEqual(got, declared, "%s trace=%d" % (w, trace))

    def test_output_check_rejects_a_corrupted_replica(self):
        for w in ALL_WORKLOADS:
            proc = run(w, 5, 0, "--corrupt-replica")
            self.assertNotEqual(proc.returncode, 0, w)
            self.assertEqual(proc.stdout.strip(), "", w)
            self.assertIn("output check FAILED", proc.stderr, w)


if __name__ == "__main__":
    unittest.main(verbosity=2)
