#!/usr/bin/env python3
"""Benchmark entry point.

Builds the harness (perfbench/harness) from source, measures one workload
for a fixed time on one worker thread, and prints the harness's report
lines followed by one JSON result line:

    python3 perfbench/run.py --workload reference-sweep --seed 1 \
        --seconds 10 --trace 0

With --trace 0 the result holds the end-to-end metrics of BENCHMARK.json,
with --trace 1 the per-layer metrics. setup_s is the median over several
fresh processes of the time to the end of the first (untimed) pass.
--quick shrinks every grid to a few scenarios for the self-tests.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "harness", "Cargo.toml")
WORKLOADS = ("reference-sweep", "temporal-energy", "sweepd-jobs")
# Fresh processes that only run the set-up pass; the measuring process
# adds one more sample.
SETUP_PROBES = 2
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 150


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout):
    """Run the harness, pass its stderr through, return its stdout lines."""
    try:
        done = subprocess.run(
            cmd, cwd=REPO, stdout=subprocess.PIPE, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        fail(f"timed out after {timeout} s: {' '.join(cmd)}")
    if done.returncode != 0:
        fail(f"exit code {done.returncode}: {' '.join(cmd)}")
    lines = done.stdout.splitlines()
    if not lines:
        fail(f"no output: {' '.join(cmd)}")
    return lines


def build():
    if not os.path.isfile(os.path.join(REPO, "crates", "core", "Cargo.toml")):
        fail("the engine sources (crates/) are missing; nothing to build")
    target = os.path.join(REPO, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target, CARGO_NET_OFFLINE="true")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", MANIFEST]
    try:
        done = subprocess.run(cmd, cwd=REPO, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if done.returncode != 0:
        fail("build failed")
    return os.path.join(target, "release", "perfbench")


def declared_metrics(trace):
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()

    declared = declared_metrics(args.trace)
    binary = build()
    base = [binary, "--workload", args.workload, "--seed", str(args.seed)]
    if args.quick:
        base.append("--quick")

    setup = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            probe = run(base + ["--probe-setup"], RUN_TIMEOUT_S)
            setup.append(json.loads(probe[-1])["setup_s"])

    lines = run(base + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                RUN_TIMEOUT_S)
    result = json.loads(lines[-1])
    metrics = result["metrics"]
    if not args.trace:
        setup.append(metrics["setup_s"]["value"])
        metrics["setup_s"]["value"] = statistics.median(setup)

    got = {name: m["unit"] for name, m in metrics.items()}
    if got != declared:
        fail(f"metrics {sorted(got.items())} do not match BENCHMARK.json "
             f"{sorted(declared.items())}")

    for line in lines[:-1]:
        print(line)
    print(json.dumps({
        "correct": result["correct"] and result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
