#!/usr/bin/env python3
"""Runs one workload of the live-update benchmark and prints its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the measuring program (``perfbench/Cargo.toml``, release, offline)
against the repository's crates, runs it, and prints every metric it
reports -- name, value, unit, clock and sample count -- followed, as the
last line, by one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` they are the per-layer ones. Exits non-zero, without a
result, when the program cannot be built or run, and non-zero, with a
result, when any output check failed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["ftp-update", "fleet-precopy", "cache-durable", "fault-drills"]
# Kill the measuring program well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def build():
    """Builds the measuring program; returns its path or None."""
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--message-format=json-render-diagnostics",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    except OSError as e:
        print(f"run.py: cannot run cargo: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("run.py: building the benchmark failed", file=sys.stderr)
        return None
    for line in done.stdout.splitlines():
        try:
            msg = json.loads(line)
        except ValueError:
            continue
        if msg.get("reason") == "compiler-artifact" and msg.get("executable"):
            if msg["target"]["name"] == "mcr-perfbench":
                return msg["executable"]
    print("run.py: cargo reported no benchmark executable", file=sys.stderr)
    return None


def run(binary, argv):
    """Runs the program; returns (exit status, stdout)."""
    try:
        done = subprocess.run([binary] + argv, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: the benchmark ran longer than {RUN_TIMEOUT_S} s", file=sys.stderr)
        return None, ""
    return done.returncode, done.stdout


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "min"], default="full",
                    help="min: the self-test's smallest inputs")
    ap.add_argument("--scale", type=float, default=1.0,
                    help="scales fleet-precopy's sessions and cache-durable's entries")
    args = ap.parse_args()

    binary = build()
    if binary is None:
        return 2
    argv = [
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--size", args.size, "--scale", str(args.scale),
    ]
    status, out = run(binary, argv)
    lines = out.strip().splitlines()
    try:
        doc = json.loads(lines[-1])
    except (IndexError, ValueError):
        print(f"run.py: the benchmark exited with {status} and printed no result", file=sys.stderr)
        return 2
    if status != 0:
        print(f"run.py: the benchmark exited with {status}", file=sys.stderr)
        return 2

    metrics = doc["metrics"]
    report = doc["report"]
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for r in report:
        print(f"{r['name']:<20} {r['value']:>16.6f} {r['unit']:<6} clock={r['clock']:<4} samples={int(r['samples'])}")
    if args.trace == 1:
        for name, m in metrics.items():
            print(f"{name:<36} {m['value']:>16.6f} {m['unit']}")
    result = {
        "correct": bool(doc["correct"]),
        "attempted": int(doc["attempted"]),
        "failed": int(doc["failed"]),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
