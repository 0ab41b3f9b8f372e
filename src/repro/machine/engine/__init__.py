"""Vectorized cache-simulation engines.

``Cache`` (:mod:`repro.machine.cache`) is the executable specification: a
per-access Python loop that is easy to read and audit.  The engines here
are drop-in replacements that produce **bit-identical** counters and event
streams while running one to two orders of magnitude faster:

* :class:`DirectMappedEngine` — associativity-1 levels (the Exemplar's
  PA-8000 data cache) via group-by-set consecutive comparisons in NumPy.
* :class:`SetAssociativeEngine` — arbitrary A-way LRU write-back/
  write-allocate levels (the Origin2000's 2-way L1 and L2), with the
  ordered downstream event stream intermediate levels need.
* :class:`StackDistanceEngine` — fully-associative LRU levels via Mattson
  stack distances; also exposes :func:`miss_curve`, the exact miss count
  of *every* cache size from one trace pass (a
  :class:`~repro.machine.engine.stack.StackProfile`).

:func:`select_engine` picks the fastest exact engine for a level;
``"reference"`` always means the original ``Cache``.  The reference stays
the ground truth: :mod:`repro.machine.engine.verify` cross-checks engines
against it on randomized traces.
"""

from __future__ import annotations

from ...errors import MachineError
from ...options import ENGINE_NAMES, current_options
from ..cache import Cache, CacheGeometry
from .base import BaseEngine
from .direct import DirectMappedEngine
from .distinct import COLD, count_prior_leq, previous_occurrences, reuse_distances
from .setassoc import SetAssociativeEngine
from .stack import StackDistanceEngine, miss_curve

#: Engine name -> simulator class.  ``"auto"`` is resolved by
#: :func:`select_engine`, not listed here.
ENGINES = {
    "reference": Cache,
    "direct": DirectMappedEngine,
    "setassoc": SetAssociativeEngine,
    "stack": StackDistanceEngine,
}

def select_engine(
    geometry: CacheGeometry,
    write_back: bool = True,
    write_allocate: bool = True,
    *,
    last_level: bool = True,
    engine: str | None = None,
) -> type:
    """Resolve an engine name to a simulator class for one cache level.

    ``engine=None`` uses the active options' engine
    (:func:`repro.options.current_options`);
    ``"auto"`` picks the fastest engine that is exact for the level:

    * associativity 1 -> :class:`DirectMappedEngine` (always exact);
    * fully-associative write-back/write-allocate *last* levels ->
      :class:`StackDistanceEngine` (exact counters; produces no event
      stream, hence only where nothing downstream consumes events);
    * any other write-back/write-allocate level — set-associative at any
      position, fully-associative *intermediate* ->
      :class:`SetAssociativeEngine` (exact counters *and* ordered events);
    * everything else (write-through set-associative) -> the reference
      ``Cache``.
    """
    name = engine if engine is not None else current_options().engine
    if name != "auto":
        try:
            return ENGINES[name]
        except KeyError:
            raise MachineError(
                f"unknown engine {name!r}; choose from {', '.join(ENGINE_NAMES)}"
            ) from None
    if geometry.associativity == 1:
        return DirectMappedEngine
    if write_back and write_allocate:
        if geometry.n_sets == 1 and last_level:
            return StackDistanceEngine
        return SetAssociativeEngine
    return Cache


#: Names served lazily from :mod:`repro.machine.engine.sharded`.  The
#: hierarchy module imports this package (for telemetry) and sharded
#: imports the hierarchy, so an eager import here would be circular.
_SHARDED_EXPORTS = (
    "ShardPlan",
    "ShardedHierarchy",
    "build_hierarchy",
    "plan_shards",
)


def __getattr__(name: str):
    if name in _SHARDED_EXPORTS:
        from . import sharded

        return getattr(sharded, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def make_cache(
    name: str,
    geometry: CacheGeometry,
    write_back: bool = True,
    write_allocate: bool = True,
    *,
    last_level: bool = True,
    engine: str | None = None,
):
    """Build a simulator for one level with :func:`select_engine`'s choice."""
    cls = select_engine(
        geometry, write_back, write_allocate, last_level=last_level, engine=engine
    )
    return cls(name, geometry, write_back, write_allocate)


__all__ = [
    "BaseEngine",
    "COLD",
    "DirectMappedEngine",
    "ENGINES",
    "SetAssociativeEngine",
    "ShardPlan",
    "ShardedHierarchy",
    "StackDistanceEngine",
    "build_hierarchy",
    "plan_shards",
    "count_prior_leq",
    "make_cache",
    "miss_curve",
    "previous_occurrences",
    "reuse_distances",
    "select_engine",
]
