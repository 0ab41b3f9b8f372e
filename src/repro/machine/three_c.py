"""The 3C miss classification: compulsory / capacity / conflict.

Hill's classic decomposition, computed the standard way from three replays
of the same trace:

* **compulsory** — misses of an infinite cache (first touch of each line);
* **capacity**   — additional misses of a *fully associative* LRU cache of
  the same size;
* **conflict**   — whatever the real (set-associative/direct-mapped)
  geometry adds on top.

The paper's footnote 3 *conjectures* the Exemplar 3w6r anomaly is conflict
misses; experiment E18 runs this classification and shows the anomaly is
conflict-class to the last miss, while the same kernel on the Origin's
2-way caches has none.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import MachineError
from .cache import CacheGeometry
from .engine import make_cache


@dataclass(frozen=True)
class MissClassification:
    """Counts of one trace's misses by cause, for one geometry."""

    geometry: CacheGeometry
    total: int
    compulsory: int
    capacity: int
    conflict: int

    def __post_init__(self) -> None:
        if self.compulsory + self.capacity + self.conflict != self.total:
            raise MachineError("3C classes must sum to the total miss count")

    @property
    def conflict_fraction(self) -> float:
        return self.conflict / self.total if self.total else 0.0

    def describe(self) -> str:
        return (
            f"{self.total} misses = {self.compulsory} compulsory + "
            f"{self.capacity} capacity + {self.conflict} conflict "
            f"({self.conflict_fraction:.0%} conflict)"
        )


def _misses(
    addrs: np.ndarray, writes: np.ndarray, geometry: CacheGeometry
) -> int:
    # Counters only: the fully-associative replay runs on the stack
    # engine, which produces no event stream.
    cache = make_cache("c", geometry)
    cache.run(addrs, writes, collect_events=False)
    return cache.stats.misses


def classify_misses(
    byte_addrs: np.ndarray,
    is_write: np.ndarray,
    geometry: CacheGeometry,
) -> MissClassification:
    """Classify the misses of ``geometry`` on the given access stream."""
    addrs = np.asarray(byte_addrs, dtype=np.int64)
    writes = np.asarray(is_write, dtype=bool)
    if len(addrs) != len(writes):
        raise MachineError("address and write arrays must have equal length")

    total = _misses(addrs, writes, geometry)
    # Compulsory: distinct lines (an infinite cache misses exactly once per
    # line).
    shift = geometry.line_size.bit_length() - 1
    compulsory = int(np.unique(addrs >> shift).size)
    # Fully associative same-size cache: one set holding every line.
    fully = CacheGeometry(
        geometry.size_bytes, geometry.line_size, geometry.n_lines
    )
    fa_misses = _misses(addrs, writes, fully)
    capacity = max(0, fa_misses - compulsory)
    # LRU anomalies can make the set-associative cache *beat* FA-LRU on
    # adversarial traces; clamp so classes stay non-negative and sum.
    conflict = max(0, total - fa_misses)
    capacity = total - compulsory - conflict if total - compulsory - conflict >= 0 else 0
    conflict = total - compulsory - capacity
    return MissClassification(geometry, total, compulsory, capacity, conflict)
