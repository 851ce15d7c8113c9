#!/usr/bin/env python3
"""Turns a traced run's spans file into per-layer time per op.

    python3 perfbench/summarize_spans.py SPANS.tsv

The driver (--trace 1) writes one span per line: request id, span index,
parent index, name, wall start/end (steady clock, ns) and workload-clock
start/end (virtual ns on sim, wall ns on net). Every traced request has one
"op" span (issue to reply); the layer spans are client.submit and
client.txn_commit (children of their op), and harness.gen and sim.pump
(the generator and the simulator's pump for that request, recorded before
its op span opens and sharing its request id).

For each span name this prints the count, the mean wall and workload-clock
duration, the wall time per traced request (total / number of op spans),
and for "op" its self time: duration minus the part its children cover.
"""
import argparse
import collections
import sys


def load(path):
    spans = []
    with open(path) as f:
        for line in f:
            if line.startswith("#"):
                continue
            req, idx, parent, name, ws, we, cs, ce = line.rstrip("\n").split("\t")
            spans.append({"req": int(req), "idx": int(idx), "parent": int(parent),
                          "name": name, "wall": int(we) - int(ws), "clock": int(ce) - int(cs)})
    return spans


def summarize(spans):
    by_name = collections.defaultdict(list)
    child_wall = collections.defaultdict(int)
    for s in spans:
        by_name[s["name"]].append(s)
        if s["parent"] >= 0:
            child_wall[s["parent"]] += s["wall"]
    requests = max(len(by_name.get("op", [])), 1)
    out = {}
    for name, group in sorted(by_name.items()):
        n = len(group)
        total_wall = sum(s["wall"] for s in group)
        row = {
            "count": n,
            "mean_wall_ns": total_wall / n,
            "mean_clock_ns": sum(s["clock"] for s in group) / n,
            "wall_ns_per_op": total_wall / requests,
        }
        if name == "op":
            row["self_wall_ns_per_op"] = sum(s["wall"] - child_wall[s["idx"]]
                                             for s in group) / requests
        out[name] = row
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("spans")
    args = ap.parse_args()
    table = summarize(load(args.spans))
    print("%-20s %9s %14s %14s %14s" %
          ("span", "count", "mean wall ns", "mean clock ns", "wall ns / op"))
    for name, row in table.items():
        print("%-20s %9d %14.1f %14.1f %14.1f" % (name, row["count"], row["mean_wall_ns"],
                                                 row["mean_clock_ns"], row["wall_ns_per_op"]))
        if "self_wall_ns_per_op" in row:
            print("%-20s %9s %14s %14s %14.1f" % ("  op self time", "", "", "",
                                                 row["self_wall_ns_per_op"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
