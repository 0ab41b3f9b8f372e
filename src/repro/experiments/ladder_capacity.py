"""Capacity ladder — miss ratio versus cache size, planned as one sweep.

The paper's bandwidth argument rests on how fast the miss ratio falls as
cache capacity grows (Figure 1's regimes, the three-C taxonomy of E18).
This experiment sweeps a ladder of fully-associative single-level
machines over a subset of the Figure 1 kernels and reports the miss
ratio and memory bytes per flop at every capacity.

It is also the planner's showcase: every point of one program's column
shares a trace, and because the ladder machines are fully-associative
LRU single-level caches, the whole column collapses to **one**
stack-distance profile (the ``capacity`` rule in
:mod:`repro.experiments.plan`).  Pointwise, the same sweep generates and
simulates the trace once per rung.  ``--plan`` answers are bit-identical
by construction, so the manifest diff in CI compares equal.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..interp.executor import MachineRun
from ..lang.program import Program
from ..machine.cache import CacheGeometry
from ..machine.layout import LayoutPolicy
from ..machine.spec import CacheLevelSpec, MachineSpec
from ..programs import convolution, dmxpy, fft
from .config import ExperimentConfig
from .plan import SimRequest, run_batch
from .report import Table
from .result import delta, experiment

#: Ladder rungs as powers of two relative to the scaled Origin L2.
LADDER_STEPS = tuple(range(-8, 4))  # base x 2^-8 .. base x 2^3 (12 rungs)

#: Ladder line size: the Origin L2 line, the paper's memory-channel grain.
LINE_SIZE = 128

#: One fixed layout for every rung so the planner groups the whole
#: column under a single trace (the Origin padding policy).
LADDER_LAYOUT = LayoutPolicy(alignment=32, pad_bytes=37 * 32)


def ladder_sizes(config: ExperimentConfig) -> tuple[int, ...]:
    """Capacities in bytes, clamped to at least one line."""
    base = config.origin.cache_levels[-1].geometry.size_bytes
    sizes = []
    for k in LADDER_STEPS:
        size = base * (2**k) if k >= 0 else base // (2**-k)
        size = max(LINE_SIZE, size // LINE_SIZE * LINE_SIZE)
        if size not in sizes:
            sizes.append(size)
    return tuple(sizes)


def ladder_machine(size: int, config: ExperimentConfig) -> MachineSpec:
    """A single-level fully-associative machine of ``size`` bytes.

    Bandwidth and peak-flop numbers are the Origin's (they do not affect
    the counters this experiment reports); the name carries the capacity
    so every rung is a distinct machine while the trace part of the
    simulation key stays shared.
    """
    origin = config.origin
    return MachineSpec(
        name=f"ladder-{size}B",
        peak_flops=origin.peak_flops,
        register_bandwidth=origin.register_bandwidth,
        cache_levels=(
            CacheLevelSpec(
                name="C",
                geometry=CacheGeometry(size, LINE_SIZE, size // LINE_SIZE),
                downstream_bandwidth=origin.cache_levels[-1].downstream_bandwidth,
                downstream_latency=origin.cache_levels[-1].downstream_latency,
            ),
        ),
        default_layout=LADDER_LAYOUT,
    )


def ladder_workloads(config: ExperimentConfig) -> list[tuple[str, Program]]:
    """The cheap Figure 1 kernels (the expensive mm/SP/Sweep3D rows add
    trace volume, not planner coverage)."""
    n = config.stream_elements()
    return [
        ("convolution", convolution(n)),
        ("dmxpy", dmxpy(n, 16)),
        ("FFT", fft(config.fft_elements())),
    ]


def ladder_requests(config: ExperimentConfig) -> list[SimRequest]:
    """The full request batch: every workload at every rung."""
    sizes = ladder_sizes(config)
    return [
        SimRequest(prog, ladder_machine(size, config), layout_policy=LADDER_LAYOUT)
        for _, prog in ladder_workloads(config)
        for size in sizes
    ]


@dataclass(frozen=True)
class LadderResult:
    sizes: tuple[int, ...]
    programs: tuple[str, ...]
    runs: tuple[MachineRun, ...]  # row-major: programs x sizes

    def run_at(self, program: str, size: int) -> MachineRun:
        i = self.programs.index(program)
        j = self.sizes.index(size)
        return self.runs[i * len(self.sizes) + j]

    def miss_ratio(self, program: str, size: int) -> float:
        stats = self.run_at(program, size).counters.level_stats[0]
        return stats.misses / stats.accesses if stats.accesses else 0.0

    def memory_bytes_per_flop(self, program: str, size: int) -> float:
        counters = self.run_at(program, size).counters
        return counters.memory_bytes / counters.graduated_flops

    def table(self) -> Table:
        t = Table(
            "Capacity ladder: miss ratio by cache size (fully-assoc LRU)",
            ("program", "cache KB", "miss ratio", "Mem B/flop"),
        )
        for name in self.programs:
            for size in self.sizes:
                t.add(
                    name,
                    size / 1024,
                    self.miss_ratio(name, size),
                    self.memory_bytes_per_flop(name, size),
                )
        t.note = (
            "one trace per program answers every capacity; under --plan the "
            "column collapses to a single stack-distance profile"
        )
        return t


def _ladder_deltas(result: LadderResult) -> list[dict]:
    # No paper row to compare against; assert the structural property the
    # sweep exists to show — the miss ratio is non-increasing in capacity.
    out = []
    for name in result.programs:
        ratios = [result.miss_ratio(name, s) for s in result.sizes]
        monotone = all(a >= b - 1e-12 for a, b in zip(ratios, ratios[1:]))
        out.append(
            delta(name, "miss ratio monotone in capacity", 1.0, 1.0 if monotone else 0.0)
        )
    return out


@experiment("ladder", deltas=_ladder_deltas)
def run_ladder(config: ExperimentConfig | None = None) -> LadderResult:
    config = config or ExperimentConfig()
    sizes = ladder_sizes(config)
    names = tuple(name for name, _ in ladder_workloads(config))
    # run_batch respects --plan/--predict; pointwise it is exactly a loop
    # of run_or_predict calls, so both modes fill the same manifest rows.
    runs = run_batch(ladder_requests(config))
    return LadderResult(sizes, names, tuple(runs))
