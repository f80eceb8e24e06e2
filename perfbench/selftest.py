#!/usr/bin/env python3
"""Quick self-test of the live-update benchmark.

    python3 perfbench/selftest.py

Runs every workload named in BENCHMARK.json at its smallest size for one
second, untraced and traced (and the scalable workloads once more at twice
the size), and checks that each run exits 0, that every output check
passed, and that it reports exactly the metrics BENCHMARK.json names --
end-to-end ones (all above zero) untraced, per-layer ones traced -- with the
declared units. Exits non-zero on the first problem it finds.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check_run(workload, trace, expected, scale=1.0):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--size", "min", "--scale", str(scale)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    where = f"{workload} trace={trace} scale={scale}"
    if done.returncode != 0:
        return f"{where}: exit {done.returncode}\n{done.stderr[-2000:]}"
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return f"{where}: result keys {sorted(result)}"
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        return f"{where}: output checks failed: {result['failed']} of {result['attempted']}"
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        return f"{where}: metrics differ: missing {set(expected) - set(metrics)}, extra {set(metrics) - set(expected)}"
    for name, m in metrics.items():
        value = m["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            return f"{where}: {name} is not a number: {value!r}"
        if m["unit"] != expected[name]:
            return f"{where}: {name} unit {m['unit']!r}, declared {expected[name]!r}"
        if trace == 0 and value <= 0:
            return f"{where}: end-to-end metric {name} is {value}"
    return None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, expected in ((0, e2e), (1, layers)):
            problem = check_run(workload, trace, expected)
            if problem:
                print(f"FAIL {problem}")
                return 1
            print(f"ok   {workload} trace={trace}")
    # The sizes the notes' scaling figures use.
    for workload in ("fleet-precopy", "cache-durable"):
        problem = check_run(workload, 0, e2e, scale=2.0)
        if problem:
            print(f"FAIL {problem}")
            return 1
        print(f"ok   {workload} trace=0 scale=2")
    return 0


if __name__ == "__main__":
    sys.exit(main())
