"""Contention — the paper's balance gap on multicore machines.

The paper closes by warning that machine balance will keep deteriorating
as CPU speed outgrows memory bandwidth.  The multicore era made that
worse in a new way: N cores *share* one memory channel, so per-core
supply is ``B_eff(n) / n`` with a saturation ceiling (Afzal et al.'s
multicore-ECM model; Reguly's DDR-vs-HBM survey — PAPERS.md).  This
experiment sweeps cores x presets x paper workloads:

* each (machine, workload) point is simulated **once** (one core's
  counters — exact, cacheable);
* the cores axis is weak scaling priced by
  :func:`repro.machine.contention.contended_time`: every core runs its
  own copy of the workload, so per-core traffic is the measured traffic
  and only the shared-channel arithmetic changes with n.  No extra
  simulation, no extra error.

The table shows the thesis quantitatively: on the DDR-tier machine the
achievable CPU fraction collapses as cores join (the memory balance gap
grows to 4x at 16 cores); on the HBM-tier machine it barely moves; the
``future_multicore`` family extends the paper's closing extrapolation.
The single-core Origin2000 row is the control — its contended numbers
are bit-identical to the paper's model, which the differential suite
(tests/test_contention.py) and the CI battery pin down.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..interp.executor import MachineRun
from ..machine.contention import (
    ContendedBreakdown,
    CoreWork,
    contended_time,
    record_contention,
)
from ..machine.presets import ddr_multicore, future_multicore, hbm_multicore, origin2000
from ..machine.spec import MachineSpec
from ..programs import convolution, dmxpy
from ..programs.kernels import make_kernel
from .config import ExperimentConfig
from .predict import run_or_predict
from .report import Table
from .result import experiment


def _core_ladder(cores: int) -> list[int]:
    ladder = [1]
    n = 2
    while n < cores:
        ladder.append(n)
        n *= 2
    if cores > 1:
        ladder.append(cores)
    return ladder


@dataclass(frozen=True)
class ContentionPoint:
    """One (machine, workload, cores) cell of the sweep."""

    machine: str
    workload: str
    cores: int
    breakdown: ContendedBreakdown

    @property
    def slowdown(self) -> float:
        """Contended total over the same work alone on one core."""
        alone = self.breakdown.per_core[0].total
        return self.breakdown.total / alone if alone > 0 else 1.0

    @property
    def memory_gap(self) -> float:
        """Balance-gap delta vs. one core on the memory channel."""
        return self.breakdown.balance_gap[-1]


@dataclass(frozen=True)
class ContentionResult:
    points: tuple[ContentionPoint, ...]
    runs: dict[str, MachineRun]  # one simulated run per machine:workload

    def by(self, machine: str, workload: str, cores: int) -> ContentionPoint:
        for p in self.points:
            if (p.machine, p.workload, p.cores) == (machine, workload, cores):
                return p
        raise KeyError((machine, workload, cores))

    def table(self) -> Table:
        t = Table(
            "Contention: cores x presets x workloads (weak scaling)",
            ("machine", "workload", "cores", "bound", "cpu util",
             "slowdown", "mem gap"),
        )
        for p in self.points:
            t.add(
                p.machine,
                p.workload,
                p.cores,
                p.breakdown.bound,
                round(p.breakdown.cpu_utilization, 4),
                round(p.slowdown, 3),
                round(p.memory_gap, 3),
            )
        t.note = (
            "weak scaling: every core runs its own copy of the workload; "
            "'mem gap' is how many times less memory bandwidth per flop "
            "each core has than alone (the paper's balance argument, "
            "worsened by sharing)"
        )
        return t


def _machines(config: ExperimentConfig) -> list[MachineSpec]:
    return [
        origin2000(config.scale),
        ddr_multicore(config.scale),
        hbm_multicore(config.scale),
        future_multicore(config.scale),
    ]


def _workloads(config: ExperimentConfig, machine: MachineSpec):
    n = config.stream_elements(machine)
    return [
        ("convolution", convolution(n)),
        ("dmxpy", dmxpy(n, 16)),
        ("1w2r", make_kernel("1w2r", n)),
    ]


@experiment("contention")
def run_contention(config: ExperimentConfig | None = None) -> ContentionResult:
    config = config or ExperimentConfig()
    points: list[ContentionPoint] = []
    runs: dict[str, MachineRun] = {}
    for machine in _machines(config):
        for wname, prog in _workloads(config, machine):
            run = run_or_predict(prog, machine)
            runs[f"{machine.name}:{wname}"] = run
            work = CoreWork(
                run.counters.graduated_flops,
                run.counters.register_bytes,
                tuple(run.counters.downstream_bytes),
            )
            for cores in _core_ladder(machine.cores):
                breakdown = contended_time(machine, (work,) * cores)
                record_contention(machine, breakdown, source="weak-scaling")
                points.append(
                    ContentionPoint(machine.name, wname, cores, breakdown)
                )
    return ContentionResult(tuple(points), runs)
