"""Host-speed reference for timing on a shared machine.

On a shared virtual machine the same Python code runs up to twice as
slow from one second to the next, and whole phases of minutes run
25-40% slower than others, because other tenants load the hardware. A
run of the benchmark therefore also times a fixed reference kernel, in
short samples interleaved with its own work, and reports its times
scaled to reference speed: each request's time is divided by the
slowdown the samples taken around it show,

    slowdown = mean of the nearby reference samples / REFERENCE_S

The kernel uses only the standard library, never the package under
test, so a change to the package moves the reported times exactly as it
moves the measured ones, while a slow phase of the host moves the
kernel and the work alike and cancels out. The kernel mixes the kinds
of work the package does: big-integer products and interpreted dict
updates.
"""

from __future__ import annotations

import statistics
from time import perf_counter

# Nominal time of one reference sample: its typical time on the machine
# the benchmark was written on (a 2-vCPU shared Xeon VM, CPython 3.11).
REFERENCE_S = 0.0025

# Reference samples on each side of a request that give its slowdown:
# about 0.4 s of a timed run, short enough to follow the host's swings
# between fast and slow, long enough to average over them.
HALF_WINDOW = 8

_BIG = 7**3000


def _kernel() -> int:
    """Big-integer products, then dict updates in an interpreted loop.

    Only ints are allocated, which the garbage collector does not track,
    so the kernel never triggers a collection: its time does not depend
    on how many objects the work around it has left on the heap."""
    acc = 0
    for i in range(24):
        acc ^= (_BIG * (_BIG + i)) >> 8000
    table: dict = {}
    for i in range(2500):
        key = i * 7919 % 1009
        table[key] = table.get(key, 0) + i
    return acc ^ len(table)


def sample() -> float:
    """Wall time of one run of the reference kernel, in seconds."""
    t0 = perf_counter()
    _kernel()
    return perf_counter() - t0


def slowdown(samples: list[float]) -> float:
    """How much slower than reference speed the host ran while the
    samples were taken. A mean, not a median: the host switches between
    a fast and a slow speed, and the mean follows the share of time
    spent in each."""
    return statistics.fmean(samples) / REFERENCE_S


def local_slowdowns(samples: list[float], positions: list[int]) -> list[float]:
    """The slowdown around each request, given for each request the
    number of samples taken before it was served."""
    return [slowdown(samples[max(0, i - HALF_WINDOW):i + HALF_WINDOW]) for i in positions]
