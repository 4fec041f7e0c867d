#!/usr/bin/env python3
"""Compare two sets of benchmark run records, e.g. parent and change.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the records run.py leaves in perfbench/target/runs
(one JSON file per workload, seed and trace flag). Records made under
different configurations (Spark settings, versions, cores, heap) are not
comparable, so the script refuses them. Otherwise it prints, per workload
and end-to-end metric, each side's median and quartiles and the change of
the median against the metric's bound in BENCHMARK.json.
"""
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# Keys that identify the program version rather than the measuring set-up.
VERSION_KEYS = {"git_sha", "source_hash"}


def load(directory):
    runs = []
    for path in sorted(glob.glob(os.path.join(directory, "*-trace0.json"))):
        with open(path) as fh:
            runs.append(json.load(fh))
    if not runs:
        sys.exit(f"compare: no trace-0 records in {directory}")
    return runs


def config_of(runs, directory):
    configs = {json.dumps({k: v for k, v in r["config"].items() if k not in VERSION_KEYS}, sort_keys=True)
               for r in runs}
    if len(configs) != 1:
        sys.exit(f"compare: records in {directory} were made under {len(configs)} different configs")
    return configs.pop()


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, new = load(sys.argv[1]), load(sys.argv[2])
    if config_of(base, sys.argv[1]) != config_of(new, sys.argv[2]):
        sys.exit("compare: the two sets were measured under different configs; refusing to compare")
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for wl in [w["name"] for w in spec["workloads"]]:
        for m in spec["end_to_end"]:
            sides = []
            for runs in (base, new):
                vals = [r["metrics"][m["name"]]["value"] for r in runs
                        if r["workload"] == wl and m["name"] in r["metrics"]]
                sides.append(vals)
            if not all(sides):
                continue
            (b1, b2, b3), (n1, n2, n3) = quartiles(sides[0]), quartiles(sides[1])
            change = (n2 - b2) / b2 if b2 else float("nan")
            worse = change > m["bound"] if m["better"] == "lower" else -change > m["bound"]
            print(f"{wl:13s} {m['name']:17s} base {b2:.4g} [{b1:.4g}, {b3:.4g}] (n={len(sides[0])})  "
                  f"new {n2:.4g} [{n1:.4g}, {n3:.4g}] (n={len(sides[1])})  "
                  f"change {change:+.1%} {'WORSE than bound ' + str(m['bound']) if worse else ''}")


if __name__ == "__main__":
    main()
