"""Figures 7 & 8 — store elimination.

Paper's Figure 8 (seconds):

    machine      original   fusion only   store elimination
    Origin2000   0.32       0.22          0.16
    Exemplar     0.24       0.21          0.14

i.e. fusion buys ~31%/13%, store elimination another ~27%/33%, combined
≈2x on both machines. We run the same three schedules of the Figure 7
program — produced *by our compiler passes*, not hand-written — through
both simulated machines and report the same table. The store-eliminated
variant also demonstrates the transformation's defining property: read
traffic is unchanged, only writebacks disappear.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ReproError
from ..fusion.apply import apply_partitioning
from ..fusion.build import fusion_graph_from_program
from ..fusion.graph import Partitioning
from ..interp.executor import MachineRun, execute
from ..lang.program import Program
from ..programs.paper_examples import fig7_original
from ..transforms.store_elim import eliminate_stores
from ..transforms.verify import ReferenceRuns, verify_equivalent
from .config import ExperimentConfig
from .report import Table
from .result import delta, experiment

PAPER_SECONDS = {
    "Origin2000": (0.32, 0.22, 0.16),
    "Exemplar": (0.24, 0.21, 0.14),
}

STAGES = ("original", "fusion only", "store elimination")


@dataclass(frozen=True)
class Fig8Result:
    programs: tuple[Program, Program, Program]
    runs: dict[str, tuple[MachineRun, MachineRun, MachineRun]]  # machine -> stage runs

    def seconds(self, machine: str) -> tuple[float, float, float]:
        return tuple(r.seconds for r in self.runs[machine])

    def speedup(self, machine: str) -> float:
        s = self.seconds(machine)
        return s[0] / s[2]

    def table(self) -> Table:
        t = Table(
            "Figure 8: effect of store elimination (simulated milliseconds)",
            ("machine", *STAGES, "combined speedup"),
        )
        for machine, stage_runs in self.runs.items():
            secs = [r.seconds for r in stage_runs]
            t.add(machine, *(s * 1e3 for s in secs), f"{secs[0] / secs[2]:.2f}x")
        t.note = "paper: Origin 0.32/0.22/0.16 (2.0x), Exemplar 0.24/0.21/0.14 (1.7x)"
        return t


def build_stages(n: int) -> tuple[Program, Program, Program]:
    """original, compiler-fused, compiler-store-eliminated — verified."""
    original = fig7_original(n)
    graph = fusion_graph_from_program(original)
    fused = apply_partitioning(
        original, Partitioning.of([{0, 1}]), graph, name="fig7_fused"
    )
    eliminated = eliminate_stores(fused, name="fig7_se")
    reference = ReferenceRuns(original)
    verify_equivalent(original, fused, sizes=(5, 16), reference=reference)
    verify_equivalent(original, eliminated, sizes=(5, 16), reference=reference)
    if "res" in {  # the store must actually be gone
        w
        for s in eliminated.walk()
        for w in _written_arrays(s)
    }:
        raise ReproError("store elimination failed to remove the res store")
    return original, fused, eliminated


def _written_arrays(stmt):
    from ..lang.expr import ArrayRef
    from ..lang.stmt import Assign, ExternalRead

    if isinstance(stmt, Assign) and isinstance(stmt.lhs, ArrayRef):
        yield stmt.lhs.array
    if isinstance(stmt, ExternalRead) and isinstance(stmt.lhs, ArrayRef):
        yield stmt.lhs.array


def _fig8_deltas(result: Fig8Result) -> list[dict]:
    out = []
    for machine, paper in PAPER_SECONDS.items():
        name = next((m for m in result.runs if m.startswith(machine)), None)
        if name is None:
            continue
        out.append(delta(name, "combined speedup", paper[0] / paper[2], result.speedup(name)))
    return out


@experiment("fig8", deltas=_fig8_deltas)
def run_fig8(config: ExperimentConfig | None = None) -> Fig8Result:
    config = config or ExperimentConfig()
    n = config.stream_elements()
    programs = build_stages(n)
    runs: dict[str, tuple[MachineRun, MachineRun, MachineRun]] = {}
    for machine in (config.origin, config.exemplar):
        runs[machine.name] = tuple(execute(p, machine) for p in programs)
    return Fig8Result(programs, runs)
