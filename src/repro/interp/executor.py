"""Machine executor: program x machine -> counters, traffic and time.

This is the measurement instrument of the reproduction: it generates the
program's exact access trace, drives it through the machine's cache
hierarchy, and converts the resulting byte counts into execution time with
the bandwidth-bound model (plus the latency models for comparison runs).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

from ..errors import ExecutionError
from ..lang.printer import render
from ..lang.program import Program
from ..machine.engine.simcache import (
    SimulationCache,
    SimulationResult,
    machine_signature,
    resolve_memo,
    simulation_key,
)
from ..machine.contention import (
    ContendedBreakdown,
    contended_time,
    maybe_contended,
    record_contention,
    resolve_cores,
    works_from_shards,
)
from ..machine.engine.sharded import ShardedHierarchy, build_hierarchy
from ..machine.layout import LayoutPolicy, MemoryLayout, build_layout
from ..machine.spec import MachineSpec
from ..machine.timing import (
    TimeBreakdown,
    bandwidth_bound_time,
    latency_bound_time,
    overlap_time,
)
from ..options import current_options
from ..phases import SIMULATE, TRACE_GEN, phase
from ..trace import telemetry as trace_telemetry
from ..trace.events import Trace
from ..trace.generator import TraceGenerator
from ..trace.stream import prefetch_chunks
from .counters import HardwareCounters


@dataclass(frozen=True)
class MachineRun:
    """Everything measured from one simulated execution.

    ``time`` is always the single-core bandwidth-bound breakdown (the
    paper's model, bit-identical at any core count); ``contended`` is the
    N-core overlay when the process runs with ``cores > 1`` (see
    :mod:`repro.machine.contention`) and ``None`` otherwise.  Every
    derived quantity (``seconds``, ``effective_bandwidth``, ``mflops``,
    ``cpu_utilization``) follows the contended breakdown when present.
    """

    program: str
    machine: MachineSpec
    params: Mapping[str, int]
    counters: HardwareCounters
    time: TimeBreakdown
    latency_time: float
    overlap4_time: float
    contended: ContendedBreakdown | None = None

    @property
    def effective_time(self) -> TimeBreakdown:
        """The breakdown that governs this run: contended when a core
        count is in effect, the plain bandwidth bound otherwise."""
        return self.contended if self.contended is not None else self.time

    @property
    def seconds(self) -> float:
        """Simulated execution time under the bandwidth-bound model
        (contended when ``cores > 1``)."""
        return self.effective_time.total

    @property
    def effective_bandwidth(self) -> float:
        """Memory traffic divided by execution time (bytes/second) — the
        quantity Figure 3 plots."""
        return self.counters.memory_bytes / self.seconds if self.seconds else 0.0

    @property
    def mflops(self) -> float:
        return self.counters.graduated_flops / self.seconds / 1e6 if self.seconds else 0.0

    @property
    def cpu_utilization(self) -> float:
        return self.effective_time.cpu_utilization

    def describe(self) -> str:
        cores = f", {self.contended.cores} cores" if self.contended else ""
        return (
            f"{self.program} on {self.machine.name}: {self.seconds * 1e3:.3f} ms "
            f"(bound: {self.effective_time.bound}{cores}, {self.mflops:.1f} Mflop/s, "
            f"effective mem bw {self.effective_bandwidth / 1e6:.1f} MB/s)"
        )


@dataclass(frozen=True, eq=False)
class PointIdentity:
    """What one simulation instance *is*, derived once.

    Holds the bound parameters and the memory layout a run needs, and
    derives on first use the program text and the sim-cache key, so
    every caller that keys a point — :func:`execute`, the sweep
    planner's cache rule, :func:`repro.experiments.plan.request_key` —
    renders and hashes it at most once.  A
    :class:`~repro.experiments.plan.SimRequest` caches its identity, so a
    point reused across batches (or admitted by the service) is never
    re-derived; it pickles with its cached values across a fork pool.
    """

    program: Program
    machine: MachineSpec
    bound: Mapping[str, int]
    layout: MemoryLayout
    passes: int
    warmup_passes: int
    flush: bool

    @cached_property
    def text(self) -> str:
        """The program as mini-language text (its content identity)."""
        return render(self.program)

    def key_for(self, machine_desc: str) -> str:
        """The simulation key of this trace on the machine ``machine_desc``
        describes (the planner also keys by a name-independent chain)."""
        return simulation_key(
            self.text,
            self.bound,
            self.layout.placements,
            machine_desc,
            passes=self.passes,
            warmup_passes=self.warmup_passes,
            flush=self.flush,
        )

    @cached_property
    def key(self) -> str:
        """The full sim-cache key: text, bound params, placements, machine
        signature and schedule."""
        return self.key_for(machine_signature(self.machine))


def point_identity(
    program: Program,
    machine: MachineSpec,
    params: Mapping[str, int] | None = None,
    layout_policy: LayoutPolicy | None = None,
    *,
    layout: MemoryLayout | None = None,
    passes: int = 1,
    warmup_passes: int = 0,
    flush: bool = True,
) -> PointIdentity:
    """Bind ``params`` and lay the program out (``layout``, when given,
    overrides the policy) — the one place a point's identity is derived."""
    bound = program.bind_params(params)
    if layout is None:
        layout = build_layout(program, bound, layout_policy or machine.default_layout)
    return PointIdentity(program, machine, bound, layout, passes, warmup_passes, flush)


def execute(
    program: Program,
    machine: MachineSpec,
    params: Mapping[str, int] | None = None,
    layout: MemoryLayout | None = None,
    layout_policy: LayoutPolicy | None = None,
    passes: int = 1,
    warmup_passes: int = 0,
    flush: bool = True,
    validate: bool = True,
    sim_cache: SimulationCache | bool | None = None,
) -> MachineRun:
    """Run ``program`` on ``machine`` and measure it.

    How it runs comes from the active :class:`~repro.options.ExecOptions`
    (enter one with :func:`repro.options.use_options`): ``engine`` picks
    the cache-simulation engine (see :mod:`repro.machine.engine`);
    ``stream`` chooses the trace pipeline — ``False`` materializes the
    full trace before simulating, ``True`` / ``"overlap"`` generates in
    chunks of ``chunk_accesses`` fused with simulation and prefetched on
    a background thread, ``"serial"`` streams without the prefetch
    thread; ``shards`` runs the set-sharded parallel simulation (see
    :mod:`repro.machine.engine.sharded`; an infeasible request falls back
    to serial with a telemetry flag); ``cores`` prices the traffic under
    contention across N cores sharing the machine's bandwidth ceilings
    (see :mod:`repro.machine.contention`; 1 is the paper's model, a
    request above ``machine.cores`` clamps with a telemetry flag).
    Counters are bit-identical under every pipeline, engine and shard
    count; contention reprices the same traffic.

    Args:
        passes: how many times the program body is executed back to back
            (kernels are conventionally timed over repeated passes).
        warmup_passes: passes run before counters start (steady-state
            measurement; contents persist, statistics reset).
        flush: drain dirty lines at the end so written data reaches memory
            (counted as writeback traffic, as a real timed run would pay).
        layout / layout_policy: explicit placement, or a policy override;
            default is the machine's default layout policy.
        sim_cache: content-keyed memo of simulation results. ``None``
            uses the process memo when the active options' ``sim_cache``
            is on, ``False`` disables caching for this call, ``True``
            forces the process memo, or pass an explicit
            :class:`SimulationCache`.
    """
    options = current_options()
    eff_cores = resolve_cores(machine)
    identity = point_identity(
        program,
        machine,
        params,
        layout_policy,
        layout=layout,
        passes=passes,
        warmup_passes=warmup_passes,
        flush=flush,
    )
    bound, layout = identity.bound, identity.layout

    memo = resolve_memo(sim_cache)
    key = None
    cached = None
    claimed = False
    if memo is not None:
        key = identity.key
        cached = memo.get(key)
        if cached is None:
            # Cross-process in-flight guard: if another process already
            # claimed this key, wait for its published result instead of
            # duplicating the simulation.  Every failure mode (owner died,
            # timeout, unclaimable disk) falls through to simulating here.
            claimed = memo.claim(key)
            if not claimed:
                cached = memo.wait_for(key)
                if cached is None:
                    claimed = memo.claim(key)

    shard_snapshots = None
    try:
        if cached is not None:
            result = cached.result
            trace_flops, trace_loads, trace_stores = (
                cached.flops,
                cached.loads,
                cached.stores,
            )
        elif options.stream:
            result, trace_flops, trace_loads, trace_stores, shard_snapshots = (
                _execute_streamed(
                    program,
                    machine,
                    bound,
                    layout,
                    validate,
                    passes,
                    warmup_passes,
                    flush,
                    options.stream,
                    options.chunk_accesses,
                    capture_shards=eff_cores > 1,
                )
            )
        else:
            with phase(TRACE_GEN):
                gen = TraceGenerator(program, bound, layout, validate=validate)
                trace = gen.generate()
            if len(trace) == 0 and trace.flops == 0:
                raise ExecutionError(f"program {program.name!r} generates no work")
            trace_telemetry.record_trace_bytes(trace.nbytes)

            with phase(SIMULATE):
                hierarchy = build_hierarchy(machine)
                try:
                    for _ in range(warmup_passes):
                        hierarchy.run_trace(trace.addresses, trace.is_write)
                    if warmup_passes:
                        hierarchy.reset_stats()

                    for _ in range(passes):
                        hierarchy.run_trace(trace.addresses, trace.is_write)
                    if flush:
                        hierarchy.flush()
                    result = hierarchy.result()
                    if eff_cores > 1 and isinstance(hierarchy, ShardedHierarchy):
                        shard_snapshots = hierarchy.shard_results()
                finally:
                    hierarchy.close()
            trace_flops, trace_loads, trace_stores = (
                trace.flops,
                trace.loads,
                trace.stores,
            )

        if cached is None and memo is not None and key is not None:
            # Streamed and materialized runs are bit-identical, so they share
            # cache entries (the key does not encode the pipeline).
            memo.put(
                key,
                SimulationResult(result, trace_flops, trace_loads, trace_stores),
            )
    finally:
        if claimed:
            memo.release(key)

    run = assemble_run(
        program.name,
        machine,
        bound,
        result,
        trace_flops,
        trace_loads,
        trace_stores,
        passes,
        cores=eff_cores,
    )
    if (
        run.contended is not None
        and shard_snapshots
        and len(shard_snapshots) == run.contended.cores
    ):
        # Each shard's counters become one core's traffic: the telemetry
        # block then carries the honest per-core imbalance.  The
        # manifest-visible timing stays the even split of the merged
        # counters so sim-cache hits and cold runs agree bit-for-bit.
        works = works_from_shards(
            shard_snapshots, run.counters.graduated_flops, run.counters.register_bytes
        )
        record_contention(machine, contended_time(machine, works), source="shards")
    return run


def assemble_run(
    program_name: str,
    machine: MachineSpec,
    bound: Mapping[str, int],
    result,
    trace_flops: int,
    trace_loads: int,
    trace_stores: int,
    passes: int,
    cores: int | None = None,
) -> MachineRun:
    """Turn raw simulation counters into a :class:`MachineRun`.

    Shared by :func:`execute` and the sweep planner
    (:mod:`repro.experiments.plan`) so a planned point and a pointwise
    run go through byte-identical timing-model arithmetic.  ``cores``
    (None = the active options' count) adds the contended overlay when
    > 1.
    """
    flops = trace_flops * passes
    loads = trace_loads * passes
    stores = trace_stores * passes
    counters = HardwareCounters(
        machine=machine.name,
        graduated_flops=flops,
        loads=loads,
        stores=stores,
        level_stats=result.level_stats,
        downstream_bytes=result.downstream_bytes,
    )
    time = bandwidth_bound_time(
        machine, flops, counters.register_bytes, result.downstream_bytes
    )
    misses = [st.misses for st in result.level_stats]
    lat = latency_bound_time(machine, flops, misses)
    ov4 = overlap_time(
        machine, flops, counters.register_bytes, result.downstream_bytes, misses, 4
    )
    contended = maybe_contended(
        machine, flops, counters.register_bytes, result.downstream_bytes, cores
    )
    return MachineRun(
        program=program_name,
        machine=machine,
        params=dict(bound),
        counters=counters,
        time=time,
        latency_time=lat,
        overlap4_time=ov4,
        contended=contended,
    )


def _timed_chunks(gen: TraceGenerator, chunk_accesses: int | None):
    """Iterate the generator's chunks with each generation step timed
    under the TRACE_GEN phase (runs on the producer thread when the
    stream is prefetched; the phase collector is threadsafe)."""
    it = gen.chunks(chunk_accesses) if chunk_accesses else gen.chunks()
    while True:
        with phase(TRACE_GEN):
            try:
                chunk: Trace = next(it)
            except StopIteration:
                return
        yield chunk


def _execute_streamed(
    program: Program,
    machine: MachineSpec,
    bound: Mapping[str, int],
    layout: MemoryLayout,
    validate: bool,
    passes: int,
    warmup_passes: int,
    flush: bool,
    stream: bool | str,
    chunk_accesses: int | None,
    capture_shards: bool = False,
):
    """Chunked-generation pipeline: each pass regenerates the chunk
    stream and fuses it with hierarchy simulation, so peak memory is
    O(chunk), never O(trace).  Returns (result, flops, loads, stores,
    shard_snapshots) for one pass, exactly like the materialized path
    (``shard_snapshots`` is None unless ``capture_shards`` and the run
    was sharded — contended timing maps them onto cores)."""
    with phase(TRACE_GEN):
        gen = TraceGenerator(program, bound, layout, validate=validate)
    # Built (and, when sharded, forked) before the prefetch thread below
    # ever starts: forking under a live producer thread is a hazard.
    hierarchy = build_hierarchy(machine)

    def one_pass():
        chunks = _timed_chunks(gen, chunk_accesses)
        if stream in (True, "overlap"):
            chunks = prefetch_chunks(chunks)
        # SIMULATE here is consumer wall-clock; with prefetch it runs
        # concurrently with TRACE_GEN, so phase sums can exceed elapsed.
        with phase(SIMULATE):
            return hierarchy.run_stream(chunks)

    try:
        totals = None
        for _ in range(warmup_passes):
            totals = one_pass()
        if warmup_passes:
            hierarchy.reset_stats()
        for _ in range(passes):
            totals = one_pass()
        if totals is None:  # passes == warmup_passes == 0
            totals = one_pass()
            hierarchy.reset()
        if totals.accesses == 0 and totals.flops == 0:
            raise ExecutionError(f"program {program.name!r} generates no work")
        if flush:
            with phase(SIMULATE):
                hierarchy.flush()
        trace_telemetry.record_trace_bytes(totals.accesses * 9)
        result = hierarchy.result()
        snapshots = (
            hierarchy.shard_results()
            if capture_shards and isinstance(hierarchy, ShardedHierarchy)
            else None
        )
        return result, totals.flops, totals.loads, totals.stores, snapshots
    finally:
        hierarchy.close()
