#!/usr/bin/env python3
"""Self-test of the benchmark, at tiny sizes; it checks no absolute speed.

    python3 perfbench/selftest.py

From the repository root: runs every workload untraced and traced, checks
that the printed metric names and units are those BENCHMARK.json declares
and that no operation failed, then injects a fault (one perturbed
``predict`` output per round) and checks that the run counts it as failed.
"""

import json
import subprocess
import sys
from pathlib import Path

RUN = [sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", "1", "--tiny"]


def run(*args) -> dict:
    proc = subprocess.run(RUN + list(args), capture_output=True, text=True, timeout=300,
                          check=False)
    if proc.returncode != 0:
        raise AssertionError(f"{args} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {
        "0": {m["name"]: m["unit"] for m in bench["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, units in declared.items():
            result = run("--workload", workload, "--trace", trace)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != units:
                problems.append(f"{workload} trace {trace}: metrics {got} != {units}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{workload} trace {trace}: {result}")
            print(f"ok  {workload} --trace {trace}: {len(got)} metrics, "
                  f"{result['attempted']} operations")
        faulty = run("--workload", workload, "--trace", "0", "--inject-fault")
        if faulty["failed"] < 1:
            problems.append(f"{workload}: injected fault not counted: {faulty}")
        print(f"ok  {workload} --inject-fault: {faulty['failed']} of "
              f"{faulty['attempted']} operations failed")
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
