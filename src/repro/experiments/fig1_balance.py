"""Figure 1 — program and machine balance.

For each application the balance is derived from simulated hardware
counters (flops, element loads/stores, per-level misses and writebacks),
exactly the paper's methodology; the machine row comes from the
specification and is cross-checked by the STREAM/CacheBench analogs.

Paper's rows (bytes per flop, L1-Reg / L2-L1 / Mem-L2):

    convolution  6.4  / 5.1  / 5.2
    dmxpy        8.3  / 8.3  / 8.4
    mm (-O2)     24.0 / 8.2  / 5.9
    mm (-O3)     8.08 / 0.97 / 0.04
    FFT          8.3  / 3.0  / 2.7
    NAS/SP       10.8 / 6.4  / 4.9
    Sweep3D      15.0 / 9.1  / 7.8
    Origin2000   4    / 4    / 0.8

We reproduce the *shape*: levels within a row of the same order, mm(-O3)
collapsing by an order of magnitude at the memory level, every
application's memory demand far above the machine's 0.8.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..balance.model import ProgramBalance, machine_balance, program_balance
from ..interp.executor import MachineRun
from ..lang.program import Program
from ..machine.spec import MachineSpec
from ..programs import convolution, dmxpy, fft, matmul, matmul_blocked, nas_sp, sweep3d
from .config import ExperimentConfig
from .predict import run_or_predict
from .report import Table
from .result import delta, experiment

#: Paper values for EXPERIMENTS.md comparisons: name -> (L1-Reg, L2-L1, Mem-L2).
PAPER_BALANCE: Mapping[str, tuple[float, float, float]] = {
    "convolution": (6.4, 5.1, 5.2),
    "dmxpy": (8.3, 8.3, 8.4),
    "mm(-O2)": (24.0, 8.2, 5.9),
    "mm(-O3)": (8.08, 0.97, 0.04),
    "FFT": (8.3, 3.0, 2.7),
    "NAS/SP": (10.8, 6.4, 4.9),
    "Sweep3D": (15.0, 9.1, 7.8),
}

PAPER_MACHINE_BALANCE: tuple[float, float, float] = (4.0, 4.0, 0.8)


@dataclass(frozen=True)
class Fig1Result:
    machine: MachineSpec
    balances: tuple[ProgramBalance, ...]
    runs: tuple[MachineRun, ...]

    def by_name(self, name: str) -> ProgramBalance:
        for b in self.balances:
            if b.program == name:
                return b
        raise KeyError(name)

    def table(self) -> Table:
        t = Table(
            "Figure 1: program and machine balance (bytes per flop)",
            ("program", *self.machine.level_names),
        )
        for b in self.balances:
            t.add(b.program, *b.bytes_per_flop)
        t.add(self.machine.name, *machine_balance(self.machine))
        t.note = (
            "machine row is specification balance; STREAM/CacheBench analogs "
            "measure the same values (see tests)"
        )
        return t


def _workloads(config: ExperimentConfig) -> list[tuple[str, Program]]:
    n = config.stream_elements()
    side = config.grid_side()
    mm_side = config.mm_side()
    return [
        ("convolution", convolution(n)),
        ("dmxpy", dmxpy(n, 16)),
        ("mm(-O2)", matmul(mm_side, order="jki")),
        ("mm(-O3)", matmul_blocked(mm_side, tile=30)),
        ("FFT", fft(config.fft_elements())),
        ("NAS/SP", nas_sp(side, side)),
        ("Sweep3D", sweep3d(side)),
    ]


def _fig1_deltas(result: Fig1Result) -> list[dict]:
    out = []
    for name, paper in PAPER_BALANCE.items():
        measured = result.by_name(name)
        out.append(delta(name, "Mem-L2 B/flop", paper[-1], measured.memory_balance))
    machine = machine_balance(result.machine)
    out.append(
        delta(result.machine.name, "Mem-L2 B/flop", PAPER_MACHINE_BALANCE[-1], machine[-1])
    )
    return out


@experiment("fig1", deltas=_fig1_deltas)
def run_fig1(config: ExperimentConfig | None = None) -> Fig1Result:
    config = config or ExperimentConfig()
    machine = config.origin
    balances: list[ProgramBalance] = []
    runs: list[MachineRun] = []
    for name, prog in _workloads(config):
        # Under --predict these points run analytically with spot checks.
        run = run_or_predict(prog, machine)
        balance = program_balance(run)
        # Report under the figure's display name.
        balances.append(
            ProgramBalance(
                name,
                balance.channel_names,
                balance.bytes_per_flop,
                balance.flops,
                balance.channel_bytes,
            )
        )
        runs.append(run)
    return Fig1Result(machine, tuple(balances), tuple(runs))
