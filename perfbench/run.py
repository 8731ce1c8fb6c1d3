#!/usr/bin/env python3
"""tanloss benchmark: run one workload in this process and print its metrics.

    python3 perfbench/run.py --workload toy-train --seed 1 --seconds 45 --trace 0

Run from the repository root; the program is imported from ``src/``.  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced rounds and reports the per-layer metrics with
both round times, so the tracing overhead shows.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

WORKLOADS = ("toy-train", "full-train")
BLAS_THREADS = 1
WORK_DIR = Path(".perfbench_run")


def pinned_environment() -> dict[str, str]:
    """Settings that must hold from process start, so every run of every
    commit executes the program the same way.

    BLAS threads: ``TANLOSS_THREADS`` cannot pin them, because importing
    ``tanloss.cli`` runs the package ``__init__``, which imports numpy before
    ``cli`` reads the variable.  Allocator: glibc moves its mmap threshold
    with the sizes freed so far, so whether a weight-sized array reused heap
    memory or took fresh pages depended on the heap's history, and the
    paper-size timings were bimodal from run to run.  With mmap off and no
    trimming, every freed block stays in the heap and is reused: after the
    warm-up round a round takes no fresh pages from the kernel, where
    faulting them in had cost about a third of a paper-size round.
    """
    threads = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    env = {var: threads for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS", "TANLOSS_THREADS")}
    env["MALLOC_MMAP_MAX_"] = "0"
    env["MALLOC_TRIM_THRESHOLD_"] = str(1 << 40)
    return env


def src_line_count(src: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in src.glob("*.py"))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="run the workload at self-test sizes")
    parser.add_argument("--inject-fault", action="store_true",
                        help="perturb one predict output, to test the checks")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = Path("src").resolve()
    if not (src / "tanloss" / "__init__.py").is_file():
        print("error: run from the repository root; src/tanloss not found", file=sys.stderr)
        return 2
    pinned = pinned_environment()
    if any(os.environ.get(var) != value for var, value in pinned.items()):
        os.environ.update(pinned)
        os.execv(sys.executable, [sys.executable] + sys.argv)
    sys.path.insert(0, str(src))

    import tanloss
    if Path(tanloss.__file__).resolve().parent != src / "tanloss":
        print(f"error: imported tanloss from {tanloss.__file__}, not {src}", file=sys.stderr)
        return 2
    import checks
    import workloads
    from placement import pin_to_fastest_cpu
    from tracing import SpanRecorder

    spec = (workloads.TINY_SPECS if args.tiny else workloads.SPECS)[args.workload]
    work = WORK_DIR / f"work-{os.getpid()}"
    cpus = sorted(os.sched_getaffinity(0))

    def pin():
        pin_to_fastest_cpu(cpus)

    try:
        # Set-up is repeated before every round, so that its median samples
        # the whole run, not its first second.
        # Round 0 warms the allocator and the file cache: it is checked and
        # counted, but left out of every timing.  With tracing on, later
        # rounds alternate traced (odd) and untraced (even).
        recorder = SpanRecorder() if args.trace else None
        setup_times, rounds, summaries, untraced_s, traced_s = [], [], [], [], []
        start = time.perf_counter()
        while True:
            pin()
            for _ in range(workloads.SETUP_REPEATS):
                t0 = time.perf_counter()
                prep = workloads.set_up(spec, args.seed, work)
                setup_times.append(time.perf_counter() - t0)
            traced = recorder is not None and len(rounds) % 2 == 1
            if traced:
                first_span = len(recorder.spans)
                recorder.install()
            t0 = time.perf_counter()
            try:
                rounds.append(workloads.run_round(spec, args.seed, prep, work / "round",
                                                  inject_fault=args.inject_fault,
                                                  before_step=pin))
            finally:
                if traced:
                    recorder.uninstall()
            if len(rounds) > 1:
                (traced_s if traced else untraced_s).append(time.perf_counter() - t0)
            if traced:
                summaries.append(recorder.summary(first_span))
            enough = len(rounds) >= (5 if recorder else 4)
            if enough and time.perf_counter() - start >= args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        failed = checks.failed_operations(spec, prep, rounds, work / "round", args.seed)
        attempted = len(rounds) * (spec.epochs + spec.n_eval
                                   + spec.n_predict * workloads.PREDICT_CALLS)
        if recorder is not None:
            metrics = workloads.per_layer(summaries, untraced_s, traced_s)
            traces = WORK_DIR / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            recorder.write(traces / f"{args.workload}-seed{args.seed}.jsonl")
        else:
            metrics = workloads.end_to_end(spec, setup_times, rounds[1:], peak_rss_mb)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  rounds {len(rounds)}  "
          f"BLAS threads {pinned['OPENBLAS_NUM_THREADS']}  "
          f"src/tanloss lines {src_line_count(src / 'tanloss')}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.6g} {unit}")
    print(f"  attempted {attempted}  failed {failed}")
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
