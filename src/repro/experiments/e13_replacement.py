"""E13 — LRU vs Belady-optimal replacement (the Burger et al. angle, §4).

Burger et al. bounded the value of "better cache management" with the
offline-optimal (Belady) policy; the paper's rejoinder is that OPT needs
perfect future knowledge hardware cannot have — but a *compiler* sees the
whole program too, and program transformation can beat what any
replacement policy can do (it changes the trace itself).

This experiment makes both points with numbers: per workload, the memory
traffic under LRU, under OPT on the same trace, and under LRU on the
*transformed* trace (the compiler strategy). On multi-loop programs the
compiler's reduction exceeds OPT's: rescheduling beats clairvoyant
caching.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..lang.program import Program
from ..machine.cache import CacheGeometry
from ..machine.layout import build_layout
from ..machine.opt_cache import lru_bytes, lru_vs_opt
from ..machine.spec import MachineSpec
from ..programs import convolution, dmxpy, fig7_original, matmul
from ..trace.generator import generate_trace
from ..transforms.pipeline import optimize
from .config import ExperimentConfig
from .report import Table
from .result import experiment


@dataclass(frozen=True)
class ReplacementRow:
    program: str
    lru_bytes: int
    opt_bytes: int
    transformed_lru_bytes: int | None  # None when the pipeline found nothing

    @property
    def opt_gain(self) -> float:
        return self.lru_bytes / self.opt_bytes if self.opt_bytes else 1.0

    @property
    def compiler_gain(self) -> float | None:
        if self.transformed_lru_bytes is None or not self.transformed_lru_bytes:
            return None
        return self.lru_bytes / self.transformed_lru_bytes


@dataclass(frozen=True)
class E13Result:
    machine: MachineSpec
    rows: tuple[ReplacementRow, ...]

    def row(self, program: str) -> ReplacementRow:
        for r in self.rows:
            if r.program == program:
                return r
        raise KeyError(program)

    def table(self) -> Table:
        t = Table(
            "E13: LRU vs Belady-OPT vs compiler transformation (L2 traffic, bytes)",
            ("program", "LRU", "OPT (offline)", "transformed+LRU", "OPT gain", "compiler gain"),
        )
        for r in self.rows:
            t.add(
                r.program,
                r.lru_bytes,
                r.opt_bytes,
                r.transformed_lru_bytes if r.transformed_lru_bytes is not None else "-",
                f"{r.opt_gain:.2f}x",
                f"{r.compiler_gain:.2f}x" if r.compiler_gain else "-",
            )
        t.note = (
            "OPT bounds what any replacement policy could save on the SAME "
            "trace; the compiler changes the trace and is not bound by it"
        )
        return t


def _l2_trace(
    program: Program, machine: MachineSpec
) -> tuple[np.ndarray, np.ndarray, CacheGeometry]:
    """The raw element trace of one program and the last-level geometry.

    OPT replays the raw trace against the last-level geometry rather than
    the trace the upper levels filter (OPT with the full trace is a lower
    bound for OPT with the filtered trace); LRU replays the same trace so
    the two compare directly.
    """
    layout = build_layout(program, None, machine.default_layout)
    trace = generate_trace(program, layout=layout)
    return trace.addresses, trace.is_write, machine.cache_levels[-1].geometry


@experiment("e13")
def run_e13(config: ExperimentConfig | None = None) -> E13Result:
    config = config or ExperimentConfig()
    machine = config.origin
    n = config.stream_elements()
    workloads: list[Program] = [
        fig7_original(n),
        convolution(n),
        dmxpy(n, 8),
        matmul(config.mm_side(), order="jki"),
    ]
    rows = []
    for program in workloads:
        lru, opt = lru_vs_opt(*_l2_trace(program, machine))
        transformed = optimize(program).final
        if transformed is not program:
            t_lru = lru_bytes(*_l2_trace(transformed, machine))
        else:
            t_lru = None
        rows.append(ReplacementRow(program.name, lru, opt, t_lru))
    return E13Result(machine, tuple(rows))
