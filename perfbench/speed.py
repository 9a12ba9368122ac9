"""Track the speed of the CPU a run executes on, to put times on one scale.

On the 2-vCPU virtual machine this benchmark was built on, a fixed piece of
Python arithmetic ran up to 1.75x slower in some 5-second windows than in
others, and the slow windows on the two vCPUs were uncorrelated.  Wall
time alone therefore moves by 10-25% between identical runs.  The sampler
measures the drift where it happens: every `PERIOD_S` a SIGALRM handler
times a fixed `kernel` (exact `Fraction` sums, the same kind of work the
library does) on the thread that runs the queries, with the garbage
collector off so that a collection owed by the library is not charged to
the kernel.  `scaled` turns a wall interval into the time it would have
taken at the speed where the kernel takes `NOMINAL_KERNEL_S`, with the
sampler's own kernel time taken out.  It uses the median of the nearby
samples, so that one sample hit by a preemption does not move it.

Scaling divides out whatever slows the kernel and the library alike, not
only the CPU's speed, so the runner reports unscaled wall times as well.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.02
# Median kernel time on the reference machine (Intel Xeon vCPU at 2.0 GHz,
# CPython 3.11.7), so that scaled times read as wall times there.
NOMINAL_KERNEL_S = 0.000194
# Short intervals borrow the speed measured this close around them.
NEIGHBOURHOOD_S = 0.25


def kernel() -> Fraction:
    total = Fraction(0)
    for k in range(1, 41):
        total += Fraction(1, k)
    return total


def factor(took: list[float]) -> float:
    """Nominal over measured speed, from the median of some kernel times."""
    return NOMINAL_KERNEL_S / statistics.median(took) if took else 1.0


class SpeedSampler:
    """Context manager that samples the kernel time while it is active."""

    def __init__(self):
        self.at: list[float] = []  # perf_counter() when each sample started
        self.took: list[float] = []  # its kernel time in seconds

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame) -> None:
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        kernel()
        took = time.perf_counter() - start
        if collecting:
            gc.enable()
        self.at.append(start)
        self.took.append(took)

    def scaled(self, start: float, end: float) -> float:
        """Seconds that ``[start, end]`` would take at the nominal speed."""
        first = bisect.bisect_left(self.at, start)
        last = bisect.bisect_left(self.at, end)
        busy = end - start - sum(self.took[first:last])
        lo = bisect.bisect_left(self.at, start - NEIGHBOURHOOD_S)
        hi = bisect.bisect_left(self.at, end + NEIGHBOURHOOD_S)
        nearby = self.took[lo:hi] or self.took[max(first - 1, 0) : first + 1]
        return busy * factor(nearby)

    def speed(self) -> float:
        """Median speed over all samples, relative to the nominal speed."""
        return factor(self.took)
