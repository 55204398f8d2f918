"""Rescaling measured intervals to a nominal host speed.

The speed of a shared host's CPUs swings by up to 1.7x over seconds to
minutes, as other tenants come and go, and each CPU swings on its own,
with no steal time reported. A fixed pure-Python kernel, with the
instruction mix of the program's series products, is timed on every usable
CPU and on the CPU the calling thread is on, just before and just after
each measured interval. The interval is reported rescaled to the kernel's
nominal time. The share of the interval the calling thread spent on its
CPU is rescaled by that CPU's kernel, the rest (pool threads, child
processes) by the mean over all CPUs. A change to the program moves the
interval and not the kernel; a change in the host's speed moves both.
"""

from __future__ import annotations

import os
import statistics
from time import perf_counter, thread_time

KERNEL_NOMINAL_S = 0.0015
_KA = [(i * 2654435761) % (1 << 20) for i in range(160)]
_KB = [(i * 40503 + 17) % (1 << 20) for i in range(160)]


def kernel_s(repeats: int = 3) -> float:
    """Fastest of a few runs of the reference kernel, in seconds."""
    n = len(_KA)
    best = float("inf")
    for _ in range(repeats):
        start = perf_counter()
        out = [0] * n
        for i, ai in enumerate(_KA):
            for j in range(n - i):
                out[i + j] += ai * _KB[j]
        best = min(best, perf_counter() - start)
    return best


def all_cpus_kernel_s() -> float:
    """Mean kernel time over the usable CPUs.

    Pins the calling thread (pid 0 means the calling thread on Linux) to
    each CPU in turn and restores its affinity, which threads it starts
    later inherit.
    """
    cpus = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times.append(kernel_s())
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.fmean(times)


def timed(fn, *args):
    """(result, seconds, kernel seconds that apply to the call)."""
    all_before = all_cpus_kernel_s()
    own_before = kernel_s()
    start, own_start = perf_counter(), thread_time()
    result = fn(*args)
    elapsed = perf_counter() - start
    own = thread_time() - own_start
    own_kernel = (own_before + kernel_s()) / 2
    all_kernel = (all_before + all_cpus_kernel_s()) / 2
    share = min(1.0, own / elapsed) if elapsed > 0 else 1.0
    return result, elapsed, share * own_kernel + (1 - share) * all_kernel


def nominal(sample) -> float:
    """Seconds the interval of a (seconds, kernel seconds) sample would take
    at the host's nominal speed."""
    elapsed, kernel = sample
    return elapsed * KERNEL_NOMINAL_S / kernel
