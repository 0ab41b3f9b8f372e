"""Parallel experiment orchestration.

Fans any subset of the :data:`~repro.experiments.registry.EXPERIMENTS`
registry (optionally swept over several machine scales) out across worker
processes and collects structured :class:`ExperimentResult` records:

* ``jobs=1`` (and no timeout) runs in-process — identical to the old
  serial runner, and the legacy ``detail`` objects stay available;
* ``jobs>1`` (or any timeout) runs each experiment in its own forked
  worker with a per-experiment deadline and bounded retry.  A worker that
  crashes or exceeds its deadline never aborts the run: the experiment is
  recorded as ``failed``/``timeout`` in the manifest and the battery
  continues.

Each experiment runs under its own :class:`ExperimentConfig` as the
active execution options (the ``@experiment`` wrapper enters it), in
process and in a worker alike.  Before a task starts, the parent makes
the process simulation memo the one the config names
(:func:`install_sim_cache`); a worker inherits it at fork and shares its
on-disk tier, whose atomic-rename writes make concurrent use safe.
Results cross the process boundary as JSON — the same schema the run
manifest stores (``results/run-<id>.json``, ``docs/result.schema.json``)
— so serial and parallel runs produce bit-identical rows.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, Sequence

from .config import ExperimentConfig
from .registry import EXPERIMENTS
from .report import Table
from .result import SCHEMA_VERSION, ExperimentResult, failed_result
from ..errors import ReproError
from ..machine.engine.simcache import configure_sim_cache, get_sim_cache

#: Default directory for run manifests.
DEFAULT_RESULTS_DIR = "results"

#: Seconds between scheduler polls of the running workers.
_POLL_INTERVAL = 0.02


# -- graceful drain ------------------------------------------------------------
# SIGTERM (runner) or shutdown (service) requests a drain: in-flight
# workers run to completion, tasks not yet started are recorded as
# ``cancelled``, and the manifest is still written.  The flag is an Event
# so signal handlers and server threads can set it safely.
_drain_event = threading.Event()


def request_drain() -> None:
    """Ask any running battery in this process to stop starting new work."""
    _drain_event.set()


def drain_requested() -> bool:
    return _drain_event.is_set()


def reset_drain() -> None:
    """Clear the flag (start of a new battery / tests)."""
    _drain_event.clear()


@dataclass(frozen=True)
class ExperimentTask:
    """One scheduled experiment: a registry name bound to a config."""

    name: str
    config: ExperimentConfig
    label: str = ""

    def display(self) -> str:
        return self.label or self.name


@dataclass
class RunStats:
    """Scheduler-level accounting of one battery (surfaced in the
    manifest, next to ``jobs``)."""

    dedup_hits: int = 0  # tasks answered by an identical in-flight task


@dataclass(frozen=True)
class OrchestratorOptions:
    """How to drive a battery of tasks."""

    jobs: int = 1
    timeout: float | None = None  # per-experiment deadline, seconds
    retries: int = 1  # extra attempts after a crash/timeout
    registry: Mapping[str, Callable] | None = None  # defaults to EXPERIMENTS

    @property
    def use_processes(self) -> bool:
        return self.jobs > 1 or self.timeout is not None

    def resolve(self, name: str) -> Callable:
        registry = self.registry if self.registry is not None else EXPERIMENTS
        try:
            return registry[name]
        except KeyError:
            raise ReproError(f"unknown experiment {name!r}") from None


def build_plan(
    names: Sequence[str],
    base_config: ExperimentConfig,
    scales: Sequence[int] | None = None,
) -> list[ExperimentTask]:
    """Expand experiment names x scale sweep into an ordered task list."""
    configs: list[tuple[ExperimentConfig, str]]
    if scales and len(scales) > 1:
        configs = [
            (replace(base_config, scale=s), f"@1/{s}") for s in scales
        ]
    elif scales:
        configs = [(replace(base_config, scale=scales[0]), "")]
    else:
        configs = [(base_config, "")]
    return [
        ExperimentTask(name, cfg, f"{name}{suffix}")
        for cfg, suffix in configs
        for name in names
    ]


# -- worker side ---------------------------------------------------------------


def install_sim_cache(config: ExperimentConfig) -> None:
    """Make the process simulation memo the one ``config`` names: in
    memory, or with the persistent tier at ``config.sim_cache_dir``.

    Idempotent: a memo that already matches is left alone, so its
    in-memory entries survive across the batteries of one process.  A
    config with ``sim_cache`` off changes nothing — its runs skip the
    memo through their options."""
    if not config.sim_cache:
        return
    current = get_sim_cache()
    wanted = None if config.sim_cache_dir is None else Path(config.sim_cache_dir)
    if current is None or current.directory != wanted:
        configure_sim_cache(directory=config.sim_cache_dir)


def _worker(conn, fn: Callable, config_json: dict) -> None:
    """Child-process body: rebuild the config, run the experiment under it,
    ship the structured result back as JSON."""
    try:
        result = fn(ExperimentConfig.from_json(config_json))
        conn.send(("ok", result.to_json()))
    except BaseException as exc:  # noqa: BLE001 — report, parent decides
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except (OSError, ValueError, TypeError):
            pass
    finally:
        try:
            conn.close()
        except OSError:
            pass


def _mp_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover — non-POSIX platforms
        return multiprocessing.get_context()


@dataclass
class _Running:
    index: int
    task: ExperimentTask
    attempt: int
    process: Any
    conn: Any
    deadline: float | None
    payload: tuple | None = None
    # Plan indices of identical tasks that joined this in-flight run
    # instead of spawning their own worker (scheduler-level dedup).
    followers: list[tuple[int, ExperimentTask]] = field(default_factory=list)


# -- parent side ---------------------------------------------------------------


def _task_key(task: ExperimentTask) -> tuple[str, ExperimentConfig]:
    """Identity under which two scheduled tasks must produce identical
    results: same registry entry, same (frozen, hashable) config.  The
    label is display-only and deliberately excluded."""
    return (task.name, task.config)


def run_tasks(
    tasks: Sequence[ExperimentTask],
    options: OrchestratorOptions | None = None,
    stats: RunStats | None = None,
) -> Iterator[ExperimentResult]:
    """Execute ``tasks``, yielding results **in plan order** as soon as each
    is ready (parallel completions out of order are buffered).

    Duplicate tasks — same experiment, same config — are answered by one
    execution: inline runs memoize completed results, pool runs attach
    the duplicate to the identical in-flight worker.  ``stats`` (when
    given) counts those dedup hits for the manifest.
    """
    options = options or OrchestratorOptions()
    if not options.use_processes:
        yield from _run_inline(tasks, options, stats)
    else:
        yield from _run_pool(tasks, options, stats)


def _attempt_inline(
    task: ExperimentTask, options: OrchestratorOptions
) -> ExperimentResult:
    fn = options.resolve(task.name)
    last_error = "unknown error"
    attempts = options.retries + 1
    for attempt in range(1, attempts + 1):
        try:
            install_sim_cache(task.config)
            result = fn(task.config)
            return replace(result, attempts=attempt)
        except Exception as exc:  # noqa: BLE001 — degrade, never abort the run
            last_error = f"{type(exc).__name__}: {exc}"
    return failed_result(task.name, task.config, last_error, attempts=attempts)


def _run_inline(
    tasks: Sequence[ExperimentTask],
    options: OrchestratorOptions,
    stats: RunStats | None = None,
) -> Iterator[ExperimentResult]:
    memo: dict[tuple[str, ExperimentConfig], ExperimentResult] = {}
    for task in tasks:
        if drain_requested():
            yield failed_result(
                task.name, task.config,
                "battery drained before this task started", status="cancelled",
            )
            continue
        key = _task_key(task)
        if key in memo:
            if stats is not None:
                stats.dedup_hits += 1
            yield memo[key]
            continue
        result = _attempt_inline(task, options)
        if result.ok:
            memo[key] = result
        yield result


def _run_pool(
    tasks: Sequence[ExperimentTask],
    options: OrchestratorOptions,
    stats: RunStats | None = None,
) -> Iterator[ExperimentResult]:
    ctx = _mp_context()
    pending: list[tuple[int, ExperimentTask, int]] = [
        (i, t, 1) for i, t in enumerate(tasks)
    ]
    pending.reverse()  # pop() from the front of the plan
    running: list[_Running] = []
    done: dict[int, ExperimentResult] = {}
    next_out = 0
    max_attempts = options.retries + 1

    def spawn(index: int, task: ExperimentTask, attempt: int) -> None:
        fn = options.resolve(task.name)
        install_sim_cache(task.config)  # the forked worker inherits it
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_worker,
            args=(child_conn, fn, task.config.to_json()),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        deadline = (
            time.monotonic() + options.timeout if options.timeout is not None else None
        )
        running.append(_Running(index, task, attempt, proc, parent_conn, deadline))

    def finish(slot: _Running, result: ExperimentResult) -> None:
        done[slot.index] = result

    def retry_or_fail(slot: _Running, status: str, error: str) -> None:
        if slot.attempt < max_attempts:
            pending.append((slot.index, slot.task, slot.attempt + 1))
            # Followers go back to the queue as first attempts; they will
            # re-attach when the retried leader spawns (or lead themselves).
            pending.extend((i, t, 1) for i, t in slot.followers)
        else:
            finish(
                slot,
                failed_result(
                    slot.task.name,
                    slot.task.config,
                    error,
                    status=status,
                    attempts=slot.attempt,
                ),
            )
            for fidx, ftask in slot.followers:
                done[fidx] = failed_result(
                    ftask.name,
                    ftask.config,
                    error,
                    status=status,
                    attempts=slot.attempt,
                )

    try:
        while pending or running:
            if drain_requested() and pending:
                # Drain: nothing new starts; whatever is in flight
                # finishes (or times out) and is collected normally.
                while pending:
                    index, task, _attempt = pending.pop()
                    done[index] = failed_result(
                        task.name, task.config,
                        "battery drained before this task started",
                        status="cancelled",
                    )
            while pending and len(running) < max(1, options.jobs):
                index, task, attempt = pending.pop()
                leader = next(
                    (s for s in running if _task_key(s.task) == _task_key(task)),
                    None,
                )
                if leader is not None:
                    # An identical task is already in flight: ride along
                    # instead of burning a worker on the same simulation.
                    leader.followers.append((index, task))
                    if stats is not None:
                        stats.dedup_hits += 1
                    continue
                spawn(index, task, attempt)

            time.sleep(_POLL_INTERVAL)
            now = time.monotonic()
            still: list[_Running] = []
            for slot in running:
                # Drain the pipe first: a finished worker may have sent its
                # payload and already exited.
                if slot.payload is None and slot.conn.poll():
                    try:
                        slot.payload = slot.conn.recv()
                    except (EOFError, OSError):
                        slot.payload = None
                if slot.payload is not None:
                    slot.process.join(timeout=5)
                    kind, body = slot.payload
                    slot.conn.close()
                    if kind == "ok":
                        result = ExperimentResult.from_json(body)
                        finish(slot, replace(result, attempts=slot.attempt))
                        for fidx, _ftask in slot.followers:
                            done[fidx] = replace(
                                ExperimentResult.from_json(body),
                                attempts=slot.attempt,
                            )
                    else:
                        retry_or_fail(slot, "failed", str(body))
                elif not slot.process.is_alive():
                    slot.conn.close()
                    retry_or_fail(
                        slot,
                        "failed",
                        f"worker crashed (exit code {slot.process.exitcode})",
                    )
                elif slot.deadline is not None and now > slot.deadline:
                    slot.process.terminate()
                    slot.process.join(timeout=5)
                    slot.conn.close()
                    retry_or_fail(
                        slot, "timeout", f"timed out after {options.timeout}s"
                    )
                else:
                    still.append(slot)
            running[:] = still

            while next_out in done:
                yield done.pop(next_out)
                next_out += 1
    finally:
        for slot in running:
            slot.process.terminate()
            slot.process.join(timeout=5)
    while next_out in done:
        yield done.pop(next_out)
        next_out += 1


# -- manifests -----------------------------------------------------------------


def new_run_id() -> str:
    return time.strftime("%Y%m%d-%H%M%S") + f"-{os.getpid()}"


def build_manifest(
    results: Sequence[ExperimentResult],
    *,
    run_id: str | None = None,
    jobs: int = 1,
    command: Sequence[str] | None = None,
    dedup_hits: int = 0,
    service: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """``service`` is the daemon's telemetry block (queue/batch/dedup and
    latency accounting) when the battery ran under ``repro serve``; it is
    empty for direct CLI runs, matching the per-result block convention."""
    return {
        "schema_version": SCHEMA_VERSION,
        "run_id": run_id or new_run_id(),
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "jobs": jobs,
        "command": list(command) if command is not None else None,
        "dedup_hits": dedup_hits,
        "service": dict(service) if service else {},
        "results": [r.to_json() for r in results],
    }


def write_manifest(
    manifest: Mapping[str, Any], results_dir: str | os.PathLike = DEFAULT_RESULTS_DIR
) -> Path:
    """Write ``results/run-<id>.json`` atomically; returns the path."""
    directory = Path(results_dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"run-{manifest['run_id']}.json"
    tmp = path.with_name(path.name + f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, path)
    return path


def comparable_manifest(manifest: Mapping[str, Any]) -> list[dict[str, Any]]:
    """The deterministic portion of a manifest: what ``--jobs 1`` and
    ``--jobs N`` runs must agree on (timings and cache activity excluded)."""
    return [
        ExperimentResult.from_json(entry).comparable_json()
        for entry in manifest["results"]
    ]


def summary_table(results: Sequence[ExperimentResult]) -> Table:
    """The orchestrator's closing summary: one row per experiment."""
    t = Table(
        "Run summary",
        ("experiment", "scale", "status", "attempts", "time (s)", "sim cache", "peak MB"),
        volatile=("time (s)", "sim cache", "peak MB"),
    )
    for r in results:
        cache = ""
        if r.sim_cache:
            cache = f"{r.sim_cache.get('hits', 0)}h/{r.sim_cache.get('misses', 0)}m"
            if r.sim_cache.get("disk_hits"):
                cache += f" ({r.sim_cache['disk_hits']} disk)"
        rss = r.memory.get("peak_rss_bytes")
        t.add(
            r.experiment,
            r.config.get("scale", "-"),
            r.status,
            r.attempts,
            r.timings.get("total", 0.0),
            cache,
            f"{rss / 2**20:.0f}" if rss else "",
        )
    failures = [r for r in results if not r.ok]
    if failures:
        t.note = "; ".join(f.describe_failure() for f in failures)
    return t


def run_battery(
    names: Sequence[str],
    config: ExperimentConfig | None = None,
    *,
    jobs: int = 1,
    timeout: float | None = None,
    retries: int = 1,
    scales: Sequence[int] | None = None,
    registry: Mapping[str, Callable] | None = None,
) -> list[ExperimentResult]:
    """Convenience wrapper: plan, run, collect (used by :mod:`repro.api`)."""
    config = config or ExperimentConfig()
    tasks = build_plan(list(names), config, scales)
    options = OrchestratorOptions(
        jobs=jobs, timeout=timeout, retries=retries, registry=registry
    )
    return list(run_tasks(tasks, options))


__all__ = [
    "DEFAULT_RESULTS_DIR",
    "ExperimentTask",
    "OrchestratorOptions",
    "RunStats",
    "build_manifest",
    "build_plan",
    "comparable_manifest",
    "drain_requested",
    "install_sim_cache",
    "new_run_id",
    "request_drain",
    "reset_drain",
    "run_battery",
    "run_tasks",
    "summary_table",
    "write_manifest",
]
