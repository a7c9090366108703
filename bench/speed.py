"""The host's current speed, from a fixed reference kernel.

The host is shared, and its CPU speed swings by up to a third within
minutes as other guests come and go; Python work of every kind slows and
speeds with it, in roughly equal measure.  The benchmark therefore times a
fixed kernel before and after every timed set-up and every segment of a
pass, and scales the measured CPU time by REFERENCE_S / (kernel CPU time):
the result is the time the work would take on a machine where the kernel
takes REFERENCE_S.  The kernel uses only builtins and ``fractions`` (integer
arithmetic, a dict, a sort and Fraction sums, the mix the workloads run),
never contractlab, so no change to the program can change it.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import process_time

REFERENCE_S = 0.002  # the kernel's CPU time the results are scaled to
RUNS = 5  # kernel runs per reading; the reading is their median


def kernel() -> int:
    x, counts, total = 1, {}, Fraction(0)
    for i in range(4000):
        x = (x * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        counts[x & 511] = counts.get(x & 511, 0) + 1
        if i % 40 == 0:
            total += Fraction(x & 0xFFFF, (x >> 48) + 1)
    return sorted(counts.values())[0] + total.numerator % 7


def reading() -> float:
    """Median CPU seconds of one kernel run, now."""
    times = []
    for _ in range(RUNS):
        start = process_time()
        kernel()
        times.append(process_time() - start)
    return statistics.median(times)


class Clock:
    """Readings taken between timed spans: each span is scaled by the mean of
    the readings just before and just after it."""

    def __init__(self):
        self.readings = [reading()]

    def scale(self) -> float:
        """Take the reading that closes the span just timed; return its factor."""
        self.readings.append(reading())
        return REFERENCE_S / statistics.mean(self.readings[-2:])
