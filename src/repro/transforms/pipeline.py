"""The paper's full compiler strategy, as one driver.

Section 3's strategy, in order:

1. **bandwidth-minimal loop fusion** — build the fusion graph, solve
   (exactly when small, greedy bisection otherwise), rewrite;
2. **storage reduction** — contract arrays whose live ranges collapsed to
   one iteration; shrink arrays with unit-distance carried values;
3. **store elimination** — drop writebacks to arrays that die inside
   their last defining loop.

Every stage is verified against the reference interpreter before it is
accepted; a stage that fails verification (or is inapplicable) is skipped
and recorded, so the pipeline is safe to run on arbitrary programs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..errors import FusionError, TransformError, VerificationError
from ..fusion.apply import apply_partitioning
from ..fusion.build import fusion_graph_from_program
from ..fusion.graph import Partitioning
from ..fusion.multi_partition import MAX_EXACT_NODES, greedy_partitioning, optimal_partitioning
from ..lang.program import Program
from ..phases import TRANSFORM, phase
from .contraction import contract_arrays, contractible_arrays
from .normalize import normalize_guard_contexts
from .peeling import peel_array
from .shrinking import shrink_array
from .store_elim import eliminate_stores
from .verify import ReferenceRuns, verify_equivalent


@dataclass(frozen=True)
class PipelineStage:
    """One attempted stage of the strategy."""

    stage: str
    applied: bool
    detail: str
    program: Program


@dataclass(frozen=True)
class PipelineResult:
    """The strategy's trace: every stage and the final program."""

    original: Program
    stages: tuple[PipelineStage, ...]

    @property
    def final(self) -> Program:
        return self.stages[-1].program if self.stages else self.original

    @property
    def applied_stages(self) -> tuple[str, ...]:
        return tuple(s.stage for s in self.stages if s.applied)

    def describe(self) -> str:
        rows = [f"pipeline[{self.original.name}]:"]
        for s in self.stages:
            mark = "applied" if s.applied else "skipped"
            rows.append(f"  {s.stage:<18} {mark:<8} {s.detail}")
        return "\n".join(rows)


def optimize(
    program: Program,
    verify_sizes: Sequence[int] = (4, 7, 16),
    fuse: bool = True,
    reduce_storage: bool = True,
    eliminate: bool = True,
) -> PipelineResult:
    """Run the full strategy on ``program``; returns all stages."""
    with phase(TRANSFORM):
        return _optimize(program, verify_sizes, fuse, reduce_storage, eliminate)


def _optimize(
    program: Program,
    verify_sizes: Sequence[int],
    fuse: bool,
    reduce_storage: bool,
    eliminate: bool,
) -> PipelineResult:
    stages: list[PipelineStage] = []
    current = program
    reference = ReferenceRuns(program)

    def accept(stage: str, candidate: Program, detail: str) -> None:
        nonlocal current
        try:
            verify_equivalent(program, candidate, sizes=verify_sizes, reference=reference)
        except VerificationError as exc:
            stages.append(PipelineStage(stage, False, f"verification failed: {exc}", current))
            return
        stages.append(PipelineStage(stage, True, detail, candidate))
        current = candidate

    if fuse:
        try:
            graph = fusion_graph_from_program(current)
            if graph.n_nodes <= 1:
                stages.append(PipelineStage("fusion", False, "single loop nest", current))
            else:
                if graph.n_nodes <= MAX_EXACT_NODES:
                    solution = optimal_partitioning(graph)
                else:
                    solution = greedy_partitioning(graph)
                baseline = solution_cost_of_singletons(graph)
                if solution.partitioning.n_groups == graph.n_nodes:
                    stages.append(
                        PipelineStage("fusion", False, "fusion cannot reduce transfer", current)
                    )
                else:
                    fused = apply_partitioning(current, solution.partitioning, graph)
                    accept(
                        "fusion",
                        fused,
                        f"{graph.n_nodes} nests -> {solution.partitioning.n_groups} "
                        f"(array loads {baseline} -> {solution.cost}, {solution.method})",
                    )
        except FusionError as exc:
            stages.append(PipelineStage("fusion", False, str(exc), current))

    if reduce_storage:
        # Normalization first: pinned-constant subscripts become variable
        # form, making references uniform for the storage analyses.
        normalized = normalize_guard_contexts(current)
        if normalized is not current:
            accept("normalize", normalized, "guard-pinned subscripts rewritten")

        # Peeling: split constant-indexed slices out of arrays that are
        # otherwise swept with variable subscripts (Figure 6's a[*, 0]).
        peeled_arrays: list[str] = []
        for array, dim, at in peel_candidates(current):
            try:
                candidate = peel_array(current, array, dim, at)
            except TransformError:
                continue
            try:
                verify_equivalent(program, candidate, sizes=verify_sizes, reference=reference)
            except VerificationError:
                continue
            current = candidate
            peeled_arrays.append(f"{array}[dim{dim}={at}]")
        if peeled_arrays:
            stages.append(
                PipelineStage("peeling", True, f"peeled {peeled_arrays}", current)
            )

        contracted = False
        candidates = sorted(contractible_arrays(current))
        if candidates:
            try:
                reduced = contract_arrays(current)
                if reduced is not current:
                    accept("contraction", reduced, f"contracted {candidates}")
                    contracted = True
            except TransformError as exc:
                stages.append(PipelineStage("contraction", False, str(exc), current))
        if not contracted and not candidates:
            stages.append(PipelineStage("contraction", False, "no candidates", current))

        shrunk: list[str] = []
        for decl in list(current.arrays):
            try:
                candidate = shrink_array(current, decl.name)
            except TransformError:
                continue
            try:
                verify_equivalent(program, candidate, sizes=verify_sizes, reference=reference)
            except VerificationError:
                continue
            current = candidate
            shrunk.append(decl.name)
        if shrunk:
            stages.append(
                PipelineStage("shrinking", True, f"shrunk {shrunk}", current)
            )
        else:
            stages.append(PipelineStage("shrinking", False, "no candidates", current))

    if eliminate:
        try:
            candidate = eliminate_stores(current)
            if candidate is current:
                stages.append(PipelineStage("store-elim", False, "no candidates", current))
            else:
                accept("store-elim", candidate, "writebacks removed")
        except TransformError as exc:
            stages.append(PipelineStage("store-elim", False, str(exc), current))

    return PipelineResult(program, tuple(stages))


def solution_cost_of_singletons(graph) -> int:
    from ..fusion.cost import bandwidth_cost

    return bandwidth_cost(graph, Partitioning.singletons(graph.n_nodes))


def peel_candidates(program: Program) -> list[tuple[str, int, "object"]]:
    """(array, dim, at) triples worth peeling: a non-output array whose
    dimension ``dim`` is addressed both by loop-variable subscripts and by
    the parameter-constant ``at`` (a boundary slice with its own life)."""
    from ..lang.analysis.arrays import refs_of_array

    candidates: list[tuple[str, int, object]] = []
    params = set(program.params)
    for decl in program.arrays:
        if decl.name in program.outputs:
            continue
        refs_r: list = []
        refs_w: list = []
        for stmt in program.body:
            r, w = refs_of_array(stmt, decl.name)
            refs_r.extend(r)
            refs_w.extend(w)
        refs = refs_r + refs_w
        if not refs:
            continue
        for dim in range(decl.rank):
            constants = []
            has_var = False
            for ref in refs:
                sub = ref.index[dim]
                if sub.symbols - params:
                    has_var = True
                elif sub not in constants:
                    constants.append(sub)
            if has_var:
                for at in constants:
                    candidates.append((decl.name, dim, at))
    return candidates
