"""Run each timed step on the CPU that is fastest just before it.

The benchmark's host lends its vCPUs from a machine shared with other
tenants, and each vCPU turns slow and fast on its own, in phases of
seconds to minutes: a fixed Python loop ran 7 ms on one vCPU while it ran
10 ms on the other, and the two swapped a few seconds later.  A process left
where the scheduler put it may spend a whole run on the slow one.  Before
each step the benchmark times a short loop on every CPU it may use and pins
itself to the fastest, so each step runs where the host is fastest at that
moment.  This only sets the benchmark's own CPU affinity.
"""

import os
import time

PROBE_ITERATIONS = 20_000
PROBES_PER_CPU = 2


def _probe() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_ITERATIONS):
        acc += i * i
    return time.perf_counter() - t0


def pin_to_fastest_cpu(cpus: list[int]) -> None:
    """Pin this process to whichever of ``cpus`` runs the probe fastest."""
    if len(cpus) < 2:
        return
    timings = {}
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        timings[cpu] = min(_probe() for _ in range(PROBES_PER_CPU))
    os.sched_setaffinity(0, {min(timings, key=timings.get)})
