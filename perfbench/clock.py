"""Machine-speed calibration for wall-clock figures.

The benchmark runs on a small shared virtual machine whose speed swings by
tens of percent within seconds.  After every operation it times a fixed
kernel (small numpy ufuncs plus an interpreter loop, the same mix as zvar's
work, about 0.3 ms) and rescales that operation's wall time to the machine's
reference speed: reported seconds are wall seconds times the reference
kernel time over the median kernel time around the operation.
"""

from __future__ import annotations

import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

import numpy as np

REFERENCE_KERNEL_S = 3.0e-4   # kernel time on the 2-vCPU reference machine when uncontended
NEIGHBOURHOOD_S = 0.025       # kernel samples this close to an operation describe its speed

_X = np.linspace(0.1, 1.0, 512)


def _kernel() -> float:
    acc = 0.0
    for i in range(24):
        y = np.sin(_X * (1.0 + i)) / _X
        acc += float(y @ _X)
    for i in range(1500):
        acc += i * 0.5
    return acc


def time_kernel() -> float:
    start = perf_counter()
    _kernel()
    return perf_counter() - start


def scale_factors(kernel_times: list[float], stamps: list[float],
                  durations: list[float]) -> list[float]:
    """Per-interval factor from wall seconds to reference seconds.

    Interval i ended at stamps[i], lasted durations[i] and was followed by a
    kernel that took kernel_times[i].  Its factor uses the median of the
    kernel samples taken within NEIGHBOURHOOD_S of it, and always the ones
    just before and just after it: contention on this machine changes within
    a fraction of a second, so distant samples describe another speed.
    """
    factors = []
    for i, (end, duration) in enumerate(zip(stamps, durations)):
        lo = min(bisect_left(stamps, end - duration - NEIGHBOURHOOD_S), max(i - 1, 0))
        hi = max(bisect_right(stamps, end + NEIGHBOURHOOD_S), i + 1)
        factors.append(REFERENCE_KERNEL_S / statistics.median(kernel_times[lo:hi]))
    return factors
