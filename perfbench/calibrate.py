"""Host-speed calibration of operation times.

A shared 2-CPU VM changes speed by tens of percent in phases lasting
seconds, more than the changes the benchmark must resolve.  The worker
therefore times a fixed kernel — this file's own code, mixing
interpreted dict work and NumPy sorting as the simulator does, and never
touched by the program under test — right before and right after each
operation, and scales the operation's times by ``REFERENCE_S /
calibration``: they are reported in host seconds at the reference speed.
Raw times and the factors are kept in the ``record`` line.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Calibration time of the reference host: a 2-CPU x86-64 VM with
#: Python 3.11 and NumPy 2.4, in its slower phase.
REFERENCE_S = 0.028


def _kernel() -> None:
    table: dict[int, int] = {}
    for i in range(100_000):
        table[i & 1023] = table.get(i & 1023, 0) + i
    values = np.arange(1 << 17, dtype=np.int64)
    for key in (12345, 54321, 777):
        np.sort(values ^ key)


def calibrate() -> float:
    """Seconds the kernel takes now: the median of three timings."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scale(before: float, after: float) -> float:
    """Factor converting host seconds measured between two calibrations
    to seconds at the reference speed."""
    return REFERENCE_S / ((before + after) / 2)
