"""Figure 3 — effective memory bandwidth of the stride-one kernels.

Each kernel's effective bandwidth is its memory traffic divided by its
(simulated) execution time. The paper's findings, which this experiment
reproduces:

* on the Origin2000 (set-associative caches) all twelve kernels land
  within ~20% of one another — the memory channel is saturated no matter
  how many arrays are in flight;
* on the Exemplar (direct-mapped cache) the six-array kernel 3w6r falls
  visibly below the rest (417–551 MB/s vs ~300 in the paper); footnote 3
  attributes it to cache conflicts. With our conflict-period-of-five
  layout the first and sixth arrays collide in the direct-mapped cache,
  the simulator shows the extra conflict traffic directly, and a padding
  ablation (pad the arrays apart -> the dip disappears) confirms the
  diagnosis — a stronger statement than the paper could make without
  Exemplar hardware counters.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..interp.executor import MachineRun
from ..lang.program import Program
from ..machine.layout import LayoutPolicy
from ..machine.spec import MachineSpec
from ..programs.kernels import KERNEL_NAMES, make_kernel
from .config import ExperimentConfig
from .predict import run_or_predict
from .report import Table
from .result import delta, experiment


def nominal_bytes(kernel: str, n: int) -> int:
    """The paper's transfer accounting: each of the r arrays is read once
    and each of the w written arrays written back once, 8 bytes/element.
    (The authors computed transfer this way — the Exemplar had no hardware
    counters — which is exactly why conflict thrash shows up as *lower*
    effective bandwidth rather than higher traffic.)"""
    from ..programs.kernels import kernel_spec

    w, r = kernel_spec(kernel)
    return (w + r) * n * 8


@dataclass(frozen=True)
class Fig3Machine:
    machine: MachineSpec
    runs: dict[str, MachineRun]
    n: int

    @property
    def bandwidths(self) -> dict[str, float]:
        """Effective bandwidth: nominal transfer / simulated time."""
        return {
            k: nominal_bytes(k, self.n) / r.seconds for k, r in self.runs.items()
        }

    def spread(self, exclude: tuple[str, ...] = ()) -> float:
        """(max-min)/max over the kernels, optionally excluding outliers."""
        vals = [bw for k, bw in self.bandwidths.items() if k not in exclude]
        return (max(vals) - min(vals)) / max(vals)


@dataclass(frozen=True)
class Fig3Result:
    origin: Fig3Machine
    exemplar: Fig3Machine
    exemplar_padded: Fig3Machine

    def table(self) -> Table:
        t = Table(
            "Figure 3: effective memory bandwidth of stride-1 kernels (MB/s)",
            ("kernel", self.origin.machine.name, self.exemplar.machine.name,
             f"{self.exemplar.machine.name}+pad"),
        )
        for name in KERNEL_NAMES:
            t.add(
                name,
                self.origin.bandwidths[name] / 1e6,
                self.exemplar.bandwidths[name] / 1e6,
                self.exemplar_padded.bandwidths[name] / 1e6,
            )
        t.note = (
            "the padded column is our ablation: one line of inter-array "
            "padding removes the 3w6r direct-mapped conflict"
        )
        return t


def _kernels(n: int) -> dict[str, Program]:
    return {name: make_kernel(name, n) for name in KERNEL_NAMES}


def _run_suite(
    machine: MachineSpec,
    kernels: dict[str, Program],
    n: int,
    layout_policy: LayoutPolicy | None = None,
) -> Fig3Machine:
    runs: dict[str, MachineRun] = {}
    for name, prog in kernels.items():
        # layout_policy is forwarded on both paths: the padded ablation
        # must reach the analytic conflict term too.
        runs[name] = run_or_predict(prog, machine, layout_policy=layout_policy)
    return Fig3Machine(machine, runs, n)


def _fig3_deltas(result: Fig3Result) -> list[dict]:
    # The paper reports claims about spread, not absolute MB/s (absolute
    # bandwidths depend on the scaled machine): Origin within 20%, the
    # Exemplar 3w6r dip well below the remaining kernels.
    dip = result.exemplar.bandwidths["3w6r"] / min(
        bw for k, bw in result.exemplar.bandwidths.items() if k != "3w6r"
    )
    return [
        delta("Origin2000", "kernel spread", 0.20, result.origin.spread()),
        delta("Exemplar 3w6r", "dip vs other kernels", 0.7, dip),
        delta("Exemplar+pad", "kernel spread", 0.20, result.exemplar_padded.spread()),
    ]


@experiment("fig3", deltas=_fig3_deltas)
def run_fig3(config: ExperimentConfig | None = None) -> Fig3Result:
    config = config or ExperimentConfig()
    n = config.stream_elements()
    origin = _run_suite(config.origin, _kernels(n), n)
    # Programs are frozen, so the Exemplar suite and its padded ablation
    # share one build; only the layouts (and sim-cache keys) differ.
    n_ex = config.exemplar_kernel_elements()
    ex_kernels = _kernels(n_ex)
    exemplar = _run_suite(config.exemplar, ex_kernels, n_ex)
    # Ablation: one extra cache line between arrays breaks the period-5
    # alignment, so 3w6r recovers.
    padded_policy = LayoutPolicy(alignment=32, pad_bytes=32)
    exemplar_padded = _run_suite(config.exemplar, ex_kernels, n_ex, padded_policy)
    return Fig3Result(origin, exemplar, exemplar_padded)
