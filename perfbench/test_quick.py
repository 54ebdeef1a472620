#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

Runs every workload in quick mode, untraced and traced, and checks that
each run prints every metric BENCHMARK.json declares, with its unit, a
per-workload output digest, and an error rate of 0:

    python3 perfbench/test_quick.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)


def main():
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", "5", "--seconds", "1", "--trace", str(trace), "--quick"]
            done = subprocess.run(cmd, cwd=REPO, stdout=subprocess.PIPE, text=True,
                                  timeout=300)
            lines = done.stdout.splitlines()
            problems = []
            if done.returncode != 0 or not lines:
                problems.append(f"exit code {done.returncode}")
            else:
                result = json.loads(lines[-1])
                if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                    problems.append(f"result keys {sorted(result)}")
                declared = {m["name"]: m["unit"] for m in spec[key]}
                got = {n: m["unit"] for n, m in result["metrics"].items()}
                if got != declared:
                    problems.append("metric names or units differ from BENCHMARK.json")
                if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                    problems.append(f"checks {result['failed']}/{result['attempted']} failed")
                if f"error_rate {workload} 0" not in lines:
                    problems.append("error_rate is not 0")
                if not any(line.startswith(f"digest {workload} ") for line in lines):
                    problems.append("no output digest")
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"{workload} trace={trace}: {status}")
            failures += bool(problems)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
