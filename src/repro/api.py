"""The stable public API of the reproduction.

Three verbs cover the paper's workflow, without reaching into deep module
paths::

    import repro
    from repro.lang import parse  # or ProgramBuilder

    report = repro.measure_balance(program, machine)   # Figures 1-2
    sim = repro.simulate(program, machine)             # the instrument
    est = repro.predict(program, machine)              # analytic, no trace
    opt = repro.optimize(program, machine)             # Section 3's strategy

plus :func:`run_experiment` / :func:`run_experiments` for the paper's
figure battery (the same orchestrator the ``repro-experiments`` CLI
drives).  Everything here wraps the underlying modules
(:mod:`repro.interp.executor`, :mod:`repro.transforms.pipeline`,
:mod:`repro.balance.model`, :mod:`repro.experiments.orchestrator`) —
those remain importable, but their shapes may change between releases;
this facade will not.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Sequence

from .balance.analytic import predict_run
from .balance.model import (
    BalanceRatios,
    ProgramBalance,
    demand_supply_ratios,
    machine_balance,
    program_balance,
    required_memory_bandwidth,
)
from .experiments.config import ExperimentConfig
from .experiments.orchestrator import run_battery
from .experiments.plan import SimRequest, run_batch
from .experiments.registry import EXPERIMENTS
from .experiments.result import ExperimentResult
from .errors import ReproError
from .interp.executor import MachineRun, execute
from .lang.program import Program
from .machine.spec import MachineSpec
from .options import override_options, use_options
from .transforms.pipeline import PipelineResult
from .transforms.pipeline import optimize as _pipeline_optimize


@dataclass(frozen=True)
class SimulationResult:
    """What :func:`simulate` measures for one program on one machine.

    (Distinct from the simulation cache's internal
    ``machine.engine.simcache.SimulationResult``, which stores raw
    counters; this is the user-facing summary.)
    """

    program: str
    machine: str
    seconds: float
    mflops: float
    flops: int
    loads: int
    stores: int
    channel_names: tuple[str, ...]
    channel_bytes: tuple[int, ...]
    memory_bytes: int
    effective_bandwidth: float  # bytes/second on the memory channel
    run: MachineRun  # the full instrument readout

    def describe(self) -> str:
        return self.run.describe()


@dataclass(frozen=True)
class BalanceReport:
    """Demand (program balance), supply (machine balance) and their ratio."""

    balance: ProgramBalance
    machine_balance: tuple[float, ...]
    ratios: BalanceRatios
    required_memory_bandwidth: float  # B/s needed to remove the bottleneck

    @property
    def memory_balance(self) -> float:
        return self.balance.memory_balance

    @property
    def limiting_channel(self) -> str:
        return self.ratios.limiting_channel

    @property
    def cpu_utilization_bound(self) -> float:
        return self.ratios.cpu_utilization_bound

    def describe(self) -> str:
        return self.balance.describe() + "\n" + self.ratios.describe()


@dataclass(frozen=True)
class OptimizationReport:
    """What the compiler strategy did to a program (and bought, if a
    machine was provided to measure on)."""

    original: Program
    optimized: Program
    applied_stages: tuple[str, ...]
    pipeline: PipelineResult
    before: SimulationResult | None = None
    after: SimulationResult | None = None

    @property
    def changed(self) -> bool:
        return bool(self.applied_stages)

    @property
    def speedup(self) -> float | None:
        if self.before is None or self.after is None or not self.after.seconds:
            return None
        return self.before.seconds / self.after.seconds

    @property
    def memory_bytes_saved(self) -> int | None:
        if self.before is None or self.after is None:
            return None
        return self.before.memory_bytes - self.after.memory_bytes

    def describe(self) -> str:
        text = self.pipeline.describe()
        if self.speedup is not None:
            text += (
                f"\nmeasured: {self.before.seconds * 1e3:.3f} ms -> "
                f"{self.after.seconds * 1e3:.3f} ms ({self.speedup:.2f}x), "
                f"memory bytes {self.before.memory_bytes:,} -> "
                f"{self.after.memory_bytes:,}"
            )
        return text


def simulate(
    program: Program,
    machine: MachineSpec,
    *,
    params: Mapping[str, int] | None = None,
    engine: str | None = None,
    passes: int = 1,
    warmup_passes: int = 0,
    shards: int | None = None,
    cores: int | None = None,
) -> SimulationResult:
    """Run ``program`` through the simulated ``machine`` and measure it.

    Wraps the trace generator + :meth:`Hierarchy.run_trace` + the timing
    model (:func:`repro.interp.executor.execute`).  ``shards`` runs the
    set-sharded parallel simulation (bit-identical counters; falls back
    to serial when the hierarchy cannot be partitioned exactly).
    ``cores`` prices the run's traffic under multicore contention
    (:mod:`repro.machine.contention`); 1 — the default — is the paper's
    uncontended model, bit-identical to omitting the argument.  Options
    left ``None`` come from the active :class:`repro.options.ExecOptions`.
    """
    options = override_options(engine=engine, shards=shards, cores=cores)
    with use_options(options):
        run = execute(
            program, machine, params=params, passes=passes, warmup_passes=warmup_passes
        )
    return _summarize(run, machine)


def simulate_stream(
    program: Program,
    machine: MachineSpec,
    *,
    params: Mapping[str, int] | None = None,
    engine: str | None = None,
    passes: int = 1,
    warmup_passes: int = 0,
    chunk_accesses: int | None = None,
    overlap: bool = True,
    shards: int | None = None,
    cores: int | None = None,
) -> SimulationResult:
    """:func:`simulate` with the streaming trace pipeline: the access
    trace is generated in bounded chunks fused with hierarchy simulation
    (and, with ``overlap``, prefetched on a background thread), so peak
    memory is O(chunk) instead of O(trace).  Counters and timings are
    bit-identical to :func:`simulate` — engines persist state across
    chunks by contract.
    """
    options = override_options(
        engine=engine,
        stream="overlap" if overlap else "serial",
        chunk_accesses=chunk_accesses,
        shards=shards,
        cores=cores,
    )
    with use_options(options):
        run = execute(
            program, machine, params=params, passes=passes, warmup_passes=warmup_passes
        )
    return _summarize(run, machine)


def _summarize(run: MachineRun, machine: MachineSpec) -> SimulationResult:
    return SimulationResult(
        program=run.program,
        machine=machine.name,
        seconds=run.seconds,
        mflops=run.mflops,
        flops=run.counters.graduated_flops,
        loads=run.counters.loads,
        stores=run.counters.stores,
        channel_names=machine.level_names,
        channel_bytes=run.counters.channel_bytes,
        memory_bytes=run.counters.memory_bytes,
        effective_bandwidth=run.effective_bandwidth,
        run=run,
    )


def simulate_batch(
    requests: Sequence[SimRequest],
    *,
    plan: bool = True,
    engine: str | None = None,
    stream: str | bool | None = None,
    chunk_accesses: int | None = None,
    shards: int | None = None,
) -> list[SimulationResult]:
    """Run a batch of sweep points through the sweep query planner.

    Each :class:`~repro.experiments.plan.SimRequest` names one
    (program, machine) point; the planner groups points that share a
    trace identity and answers each group from shared work — one trace
    generation per distinct trace, one stack-distance profile per
    fully-associative capacity ladder, shared cache-level prefixes
    simulated once.  Results are bit-identical to calling
    :func:`simulate` per point and come back in request order.
    ``plan=False`` degrades to exactly that pointwise loop.
    """
    options = override_options(
        plan=plan, engine=engine, stream=stream, chunk_accesses=chunk_accesses, shards=shards
    )
    with use_options(options):
        runs = run_batch(list(requests))
    return [_summarize(run, req.machine) for run, req in zip(runs, requests)]


def predict(
    program: Program,
    machine: MachineSpec,
    *,
    params: Mapping[str, int] | None = None,
    passes: int = 1,
    cores: int | None = None,
) -> SimulationResult:
    """:func:`simulate`'s analytic counterpart: the same summary, derived
    from the loop IR + cache geometry alone (no trace, O(1) in problem
    size).  Wraps :func:`repro.balance.analytic.predict_run`; see that
    module for the model and its documented error bands.  ``run`` is the
    predicted :class:`MachineRun` under the same timing models, including
    the contended overlay when ``cores`` (or the active options' count) > 1.
    """
    run = predict_run(program, machine, params=params, passes=passes, cores=cores)
    return _summarize(run, machine)


def measure_balance(program: Program, machine: MachineSpec) -> BalanceReport:
    """The paper's part-1 measurement: balance, ratios, utilization bound."""
    run = execute(program, machine)
    balance = program_balance(run)
    ratios = demand_supply_ratios(balance, machine)
    return BalanceReport(
        balance=balance,
        machine_balance=machine_balance(machine),
        ratios=ratios,
        required_memory_bandwidth=required_memory_bandwidth(ratios, machine),
    )


def optimize(
    program: Program,
    machine: MachineSpec | None = None,
    *,
    verify_sizes: Sequence[int] = (4, 7, 16),
) -> OptimizationReport:
    """Apply the paper's compiler strategy (fusion -> storage reduction ->
    store elimination), verified against the reference interpreter.

    With a ``machine``, the original and optimized programs are also
    simulated there, so the report carries the measured speedup.
    """
    result = _pipeline_optimize(program, verify_sizes=verify_sizes)
    before = after = None
    if machine is not None:
        before = simulate(program, machine)
        after = simulate(result.final, machine)
    return OptimizationReport(
        original=program,
        optimized=result.final,
        applied_stages=result.applied_stages,
        pipeline=result,
        before=before,
        after=after,
    )


def submit(
    requests: Sequence[SimRequest],
    address: str,
    *,
    tenant: str | None = None,
    progress=None,
) -> list[SimulationResult]:
    """Run a sweep through a running repro daemon (``repro serve``).

    Same contract as :func:`simulate_batch` — results in request order,
    bit-identical to local execution — but points are content-keyed,
    deduplicated against other clients' in-flight work, and coalesced
    into the daemon's planned micro-batches.  ``address`` is the string
    the daemon prints (``unix:<path>`` or ``tcp:<host>:<port>``);
    ``progress`` (a ``callback(done, total)``) streams incremental sweep
    progress.  Rejections (full queue, over-quota tenant, draining
    server) raise :class:`repro.service.client.ServiceError` immediately
    — a client is never left hanging.
    """
    from .service.client import submit as _submit

    return _submit(list(requests), address, tenant=tenant, progress=progress)


def serve_session(config=None):
    """An ephemeral daemon session: starts a service in the background,
    yields a connected client, drains on exit.

    ::

        with repro.serve_session() as client:
            results = client.simulate_batch(requests)

    ``config`` is an optional :class:`repro.service.server.ServeConfig`.
    For a long-lived daemon use ``repro serve`` and :func:`submit`.
    """
    import contextlib

    from .service.client import ServiceClient
    from .service.server import BackgroundServer

    @contextlib.contextmanager
    def _session():
        with BackgroundServer(config) as background:
            client = ServiceClient(background.address)
            try:
                yield client
            finally:
                client.close()

    return _session()


def run_experiment(
    name: str, config: ExperimentConfig | None = None
) -> ExperimentResult:
    """Run one experiment from the registry (``fig1`` ... ``e18``)."""
    if name not in EXPERIMENTS:
        raise ReproError(
            f"unknown experiment {name!r}; choose from {', '.join(EXPERIMENTS)}"
        )
    return EXPERIMENTS[name](config or ExperimentConfig())


def run_experiments(
    names: Sequence[str] | None = None,
    config: ExperimentConfig | None = None,
    *,
    jobs: int = 1,
    timeout: float | None = None,
    retries: int = 1,
    scales: Sequence[int] | None = None,
    predict: bool = False,
) -> list[ExperimentResult]:
    """Run a battery of experiments, optionally across worker processes.

    ``names=None`` runs everything.  Results come back in plan order; a
    crashed or timed-out experiment is recorded as failed, never raises.
    ``predict=True`` turns on the analytic fast path for sweep points
    (spot-checked against the exact simulator; see
    :mod:`repro.experiments.predict`), equivalent to setting
    ``ExperimentConfig.predict``.
    """
    wanted = list(names) if names is not None else list(EXPERIMENTS)
    for name in wanted:
        if name not in EXPERIMENTS:
            raise ReproError(f"unknown experiment {name!r}")
    if predict:
        config = replace(config or ExperimentConfig(), predict=True)
    return run_battery(
        wanted, config, jobs=jobs, timeout=timeout, retries=retries, scales=scales
    )


__all__ = [
    "BalanceReport",
    "ExperimentConfig",
    "ExperimentResult",
    "OptimizationReport",
    "SimRequest",
    "SimulationResult",
    "measure_balance",
    "optimize",
    "predict",
    "run_experiment",
    "run_experiments",
    "serve_session",
    "simulate",
    "simulate_batch",
    "simulate_stream",
    "submit",
]
