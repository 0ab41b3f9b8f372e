"""Execution options: how a simulation runs, never what it computes.

One frozen :class:`ExecOptions` value holds every execution knob (engine,
pipeline, shards, predict, plan, cores, whether to use the simulation
memo).  The active value lives in a single :class:`~contextvars.ContextVar`
whose default is ``ExecOptions()``; :func:`use_options` sets it for a
block and resets it on exit, so nothing one run chooses leaks into the
next.  :class:`~repro.experiments.config.ExperimentConfig` subclasses
:class:`ExecOptions`, and the ``@experiment`` wrapper enters each
experiment's config around its body.

Readers (``select_engine``, ``build_hierarchy``, ``resolve_cores``,
``execute``, ``execute_plan``, ``run_batch``, the predict session) call
:func:`current_options` when no explicit value is given.  A thread
started with :func:`contextvars.copy_context` (the streaming prefetch
thread) and a forked child (orchestrator pool workers, shard workers)
see the value active where they were started.

Every option is validated once, when a value is built (``__post_init__``
runs for construction and :func:`dataclasses.replace` alike).  This
module imports nothing from the package but its exceptions, so every
layer can read it without an import cycle.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace
from typing import Iterator

from .errors import ExecutionError, MachineError

#: Engine names: ``"auto"`` plus the keys of ``repro.machine.engine.ENGINES``.
ENGINE_NAMES = ("auto", "direct", "reference", "setassoc", "stack")


def _positive_int(value: object) -> bool:
    """An int >= 1; a bool, float or string is not one (wire configs
    arrive as JSON, where ``2.5`` and ``true`` are easy to send)."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


@dataclass(frozen=True)
class ExecOptions:
    """How one run executes.  Every value gives bit-identical counters
    except ``predict`` (spot-checked analytic estimates); ``cores``
    reprices the same counters under contention."""

    engine: str = "auto"  # cache-simulation engine (see repro.machine.engine)
    sim_cache: bool = True  # use the process simulation memo
    # Trace pipeline: materialized (False), chunked with a prefetch thread
    # (True / "overlap"), chunked without one ("serial").
    stream: bool | str = False
    chunk_accesses: int | None = None  # accesses per streamed chunk (None = default)
    shards: int = 1  # set-sharded parallel simulation workers (1 = serial)
    predict: bool = False  # analytic fast path for sweep points (see predict.py)
    spot_check: float = 0.05  # fraction of predicted points simulated exactly
    predict_tolerance: float = 0.10  # max per-channel byte error before fallback
    plan: bool = False  # sweep query planner for batched points (see plan.py)
    cores: int = 1  # contended timing across N cores (1 = the paper's model)

    def __post_init__(self) -> None:
        if self.engine not in ENGINE_NAMES:
            raise MachineError(
                f"unknown engine {self.engine!r}; choose from {', '.join(ENGINE_NAMES)}"
            )
        if self.stream not in (False, True, "overlap", "serial"):
            raise ExecutionError(
                f"stream must be False, True, 'overlap' or 'serial', got {self.stream!r}"
            )
        if self.chunk_accesses is not None and not _positive_int(self.chunk_accesses):
            raise ValueError(
                f"chunk_accesses must be a positive int, got {self.chunk_accesses!r}"
            )
        if not _positive_int(self.shards):
            raise MachineError(f"shards must be an int >= 1, got {self.shards!r}")
        if not _positive_int(self.cores):
            raise MachineError(f"cores must be an int >= 1, got {self.cores!r}")
        if not 0.0 < self.spot_check <= 1.0:
            raise ValueError(f"spot_check must be in (0, 1], got {self.spot_check!r}")
        if self.predict_tolerance < 0.0:
            raise ValueError(
                f"predict_tolerance must be >= 0, got {self.predict_tolerance!r}"
            )


_active: ContextVar[ExecOptions] = ContextVar("repro_exec_options", default=ExecOptions())


def current_options() -> ExecOptions:
    """The options in effect here (``ExecOptions()`` outside any block)."""
    return _active.get()


@contextmanager
def use_options(options: ExecOptions) -> Iterator[ExecOptions]:
    """Make ``options`` the active value for the enclosed block."""
    token = _active.set(options)
    try:
        yield options
    finally:
        _active.reset(token)


def override_options(**overrides) -> ExecOptions:
    """The active options with every non-``None`` keyword replaced (and
    validated); the active value itself when there is nothing to replace."""
    options = current_options()
    changes = {
        k: v for k, v in overrides.items() if v is not None and v != getattr(options, k)
    }
    return replace(options, **changes) if changes else options


__all__ = [
    "ENGINE_NAMES",
    "ExecOptions",
    "current_options",
    "override_options",
    "use_options",
]
