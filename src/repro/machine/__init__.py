"""Simulated machine substrate: caches, hierarchy, layout, timing, presets."""

from .cache import Cache, CacheGeometry, CacheStats
from .engine import (
    ENGINES,
    DirectMappedEngine,
    MissCurve,
    SetAssociativeEngine,
    StackDistanceEngine,
    make_cache,
    miss_curve,
    select_engine,
)
from .engine.simcache import SimulationCache, configure_sim_cache, get_sim_cache
from .contention import (
    ContendedBreakdown,
    CoreWork,
    contended_balance,
    contended_bound_time,
    contended_time,
    machine_balance_at,
    split_work,
    works_from_shards,
)
from .hierarchy import Hierarchy, HierarchyResult
from .layout import ArrayPlacement, LayoutPolicy, MemoryLayout, build_layout
from .opt_cache import OptResult, lru_vs_opt, simulate_opt
from .presets import (
    PRESETS,
    ddr_multicore,
    exemplar,
    future_machine,
    future_multicore,
    hbm_multicore,
    origin2000,
)
from .spec import CacheLevelSpec, ChannelContention, MachineSpec, SaturationCurve
from .three_c import MissClassification, classify_misses
from .timing import TimeBreakdown, bandwidth_bound_time, latency_bound_time, overlap_time

__all__ = [
    "ArrayPlacement",
    "Cache",
    "CacheGeometry",
    "CacheLevelSpec",
    "CacheStats",
    "ChannelContention",
    "ContendedBreakdown",
    "CoreWork",
    "DirectMappedEngine",
    "ENGINES",
    "Hierarchy",
    "HierarchyResult",
    "LayoutPolicy",
    "MachineSpec",
    "MissClassification",
    "MissCurve",
    "MemoryLayout",
    "OptResult",
    "PRESETS",
    "SaturationCurve",
    "SetAssociativeEngine",
    "SimulationCache",
    "StackDistanceEngine",
    "TimeBreakdown",
    "bandwidth_bound_time",
    "build_layout",
    "classify_misses",
    "configure_sim_cache",
    "contended_balance",
    "contended_bound_time",
    "contended_time",
    "ddr_multicore",
    "exemplar",
    "future_machine",
    "future_multicore",
    "get_sim_cache",
    "hbm_multicore",
    "latency_bound_time",
    "lru_vs_opt",
    "machine_balance_at",
    "make_cache",
    "miss_curve",
    "origin2000",
    "overlap_time",
    "select_engine",
    "simulate_opt",
    "split_work",
    "works_from_shards",
]
