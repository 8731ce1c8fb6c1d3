#!/usr/bin/env python3
"""Record benchmark results for one checkout in a BENCH_<n>.json file.

    python scripts/bench_record.py --out BENCH_16.json [--repo DIR]

Runs ``perfbench/run.py`` of the checkout at ``--repo`` (default: this
repository) as a subprocess, from that checkout's root, once per workload
that its BENCHMARK.json declares, for its ``run_seconds``, per seed (1, 2
and 3) and per ``--trace`` mode (0: the end-to-end metrics, 1: the per-layer
ones), and reads the JSON object on the last line of each run's output.
The record of the checkout holds its git revision, the BLAS threads and the
CPU model the runs used, the totals of ``scripts/count_code_lines.py``,
every run's metrics, and each metric's median and interquartile range over
the seeds.

The record is stored under its revision.  An existing ``--out`` file keeps
the records of other revisions, so one file can hold a commit and its
parent, each recorded by one call.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)


def last_json(stdout: str) -> dict:
    """The JSON object on the last non-blank line of a run's output."""
    return json.loads(stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    """Median and interquartile range (inclusive quartiles) of ``values``."""
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "iqr": q3 - q1}


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git(repo: Path, *args) -> str:
    return subprocess.run(["git", *args], cwd=repo, capture_output=True, text=True,
                          check=True).stdout.strip()


def code_lines(repo: Path) -> dict:
    """The ``total`` row of the checkout's count_code_lines.py."""
    out = subprocess.run([sys.executable, "scripts/count_code_lines.py"], cwd=repo,
                         capture_output=True, text=True, check=True).stdout
    code, physical = re.search(r"^total\s+(\d+)\s+(\d+)$", out, re.M).groups()
    return {"code": int(code), "physical": int(physical)}


def run_bench(repo: Path, workload: str, seed: int, seconds: float, trace: int) -> tuple:
    """(result object, BLAS threads) of one perfbench run."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=repo, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    threads = int(re.search(r"BLAS threads (\d+)", proc.stdout).group(1))
    return last_json(proc.stdout), threads


def record(repo: Path) -> dict:
    bench = json.loads((repo / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    workloads, threads = {}, set()
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            runs = []
            for seed in SEEDS:
                result, blas = run_bench(repo, workload, seed, seconds, trace)
                threads.add(blas)
                runs.append({"seed": seed, "attempted": result["attempted"],
                             "failed": result["failed"],
                             "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
                print(f"{workload} trace {trace} seed {seed}: failed {result['failed']} "
                      f"of {result['attempted']}", file=sys.stderr)
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            workloads.setdefault(workload, {})[f"trace{trace}"] = {
                "runs": runs,
                "metrics": {name: {"unit": unit,
                                   **summarize([r["metrics"][name] for r in runs])}
                            for name, unit in units.items()},
            }
    return {
        "revision": git(repo, "rev-parse", "HEAD"),
        "subject": git(repo, "log", "-1", "--format=%s"),
        "uncommitted_changes": bool(git(repo, "status", "--porcelain", "--untracked-files=no")),
        "cpu_model": cpu_model(),
        "blas_threads": sorted(threads),
        "seconds": seconds,
        "seeds": list(SEEDS),
        "code_lines": code_lines(repo),
        "workloads": workloads,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", required=True, type=Path, help="BENCH_<n>.json to write")
    parser.add_argument("--repo", type=Path, default=ROOT, help="checkout to benchmark")
    args = parser.parse_args(argv)
    entry = record(args.repo.resolve())
    data = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    data.setdefault("records", {})[entry["revision"]] = entry
    args.out.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {entry['revision'][:12]} in {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
