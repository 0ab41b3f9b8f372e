"""Trace statistics: footprint, stride profile, per-array access counts.

Diagnostic helpers used by tests and the experiment reports; none of the
performance model depends on them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..machine.layout import MemoryLayout
from .events import Trace


@dataclass(frozen=True)
class TraceStats:
    """Summary statistics of a trace."""

    length: int
    reads: int
    writes: int
    distinct_bytes: int  # footprint at 8-byte granularity
    distinct_lines: int  # footprint at `line_size` granularity
    line_size: int

    @property
    def write_fraction(self) -> float:
        return self.writes / self.length if self.length else 0.0


def trace_stats(trace: Trace, line_size: int = 32) -> TraceStats:
    writes = int(trace.is_write.sum())
    distinct = int(np.unique(trace.addresses).size)
    lines = int(np.unique(trace.addresses >> int(np.log2(line_size))).size)
    return TraceStats(
        length=len(trace),
        reads=len(trace) - writes,
        writes=writes,
        distinct_bytes=distinct * 8,
        distinct_lines=lines,
        line_size=line_size,
    )


def per_array_accesses(trace: Trace, layout: MemoryLayout) -> dict[str, tuple[int, int]]:
    """(reads, writes) per array, resolved through the layout."""
    out: dict[str, tuple[int, int]] = {}
    for name, placement in layout.placements.items():
        mask = (trace.addresses >= placement.base) & (trace.addresses < placement.end)
        w = int((trace.is_write & mask).sum())
        r = int(mask.sum()) - w
        out[name] = (r, w)
    return out


def stride_histogram(trace: Trace) -> dict[int, int]:
    """Histogram of successive address deltas (bytes). Streaming kernels
    show a dominant +8 stride; conflict thrash shows large alternating
    deltas."""
    if len(trace) < 2:
        return {}
    deltas = np.diff(trace.addresses)
    values, counts = np.unique(deltas, return_counts=True)
    return {int(v): int(c) for v, c in zip(values, counts)}
