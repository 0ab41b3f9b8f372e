"""E11 — §2.3's NAS/SP bandwidth-utilization study.

The paper: "5 out of its 7 major computation subroutines utilized 84% or
higher of the memory bandwidth of Origin2000", evidence that bandwidth
saturation holds for full applications, not just kernels.

We trace each of the miniature SP's seven subroutines separately, time it
with the latency-aware overlap model (a finite number of outstanding
misses — the R10K supported four), and report memory-bandwidth
utilization. The streaming phases saturate; the two transpose sweeps
(y_solve/z_solve) burn latency on line-grain strides and fall below the
threshold — the paper's 5-of-7 split.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..interp.counters import HardwareCounters
from ..machine.hierarchy import Hierarchy
from ..machine.layout import build_layout
from ..machine.spec import MachineSpec
from ..machine.timing import overlap_time
from ..programs.nas_sp import SUBROUTINES, nas_sp
from ..trace.generator import TraceGenerator
from .config import ExperimentConfig
from .report import Table
from .result import delta, experiment

SATURATION_THRESHOLD = 0.84
DEFAULT_OUTSTANDING = 4


@dataclass(frozen=True)
class SubroutineUtilization:
    name: str
    memory_bytes: int
    seconds: float
    utilization: float  # effective bw / machine memory bw


@dataclass(frozen=True)
class E11Result:
    machine: MachineSpec
    subroutines: tuple[SubroutineUtilization, ...]

    @property
    def saturated_count(self) -> int:
        return sum(1 for s in self.subroutines if s.utilization >= SATURATION_THRESHOLD)

    def table(self) -> Table:
        t = Table(
            "E11: NAS/SP per-subroutine memory-bandwidth utilization",
            ("subroutine", "mem bytes", "time (ms)", "utilization"),
        )
        for s in self.subroutines:
            t.add(s.name, s.memory_bytes, s.seconds * 1e3, f"{s.utilization:.0%}")
        t.note = (
            f"{self.saturated_count} of {len(self.subroutines)} subroutines at "
            f">= {SATURATION_THRESHOLD:.0%} (paper: 5 of 7)"
        )
        return t


def _e11_deltas(result: E11Result) -> list[dict]:
    return [delta("NAS/SP", "saturated subroutines", 5, result.saturated_count)]


@experiment("e11", deltas=_e11_deltas)
def run_e11(
    config: ExperimentConfig | None = None,
    outstanding: int = DEFAULT_OUTSTANDING,
) -> E11Result:
    config = config or ExperimentConfig()
    machine = config.origin
    side = config.grid_side()
    program = nas_sp(side, side)
    layout = build_layout(program, None, machine.default_layout)
    gen = TraceGenerator(program, None, layout)

    results = []
    for idx, name in enumerate(SUBROUTINES):
        trace = gen.statement_trace(idx)
        hierarchy = Hierarchy.from_spec(machine)
        hierarchy.run_trace(trace.addresses, trace.is_write, spans=trace.spans)
        hierarchy.flush()
        hres = hierarchy.result()
        counters = HardwareCounters(
            machine.name,
            trace.flops,
            trace.loads,
            trace.stores,
            hres.level_stats,
            hres.downstream_bytes,
        )
        misses = [st.misses for st in hres.level_stats]
        seconds = overlap_time(
            machine,
            trace.flops,
            counters.register_bytes,
            hres.downstream_bytes,
            misses,
            outstanding,
        )
        utilization = (counters.memory_bytes / seconds) / machine.memory_bandwidth
        results.append(
            SubroutineUtilization(name, counters.memory_bytes, seconds, utilization)
        )
    return E11Result(machine, tuple(results))
