"""Predict-then-verify sweep mode.

Dense parameter sweeps dominate experiment cost: every point is an exact
O(accesses) trace simulation, even though the balance model only needs
per-level byte counts. The analytic predictor
(:mod:`repro.balance.analytic`) derives those counts from the loop IR and
cache geometry in O(1), so a sweep can run analytically in milliseconds —
*if* we can trust it.

This module is the trust machinery. :func:`run_or_predict` is a drop-in
for :func:`repro.interp.executor.execute` that experiments call per sweep
point. When predict mode is off it simply simulates. When it is on:

* most points are served by :func:`repro.balance.analytic.predict_run`;
* a deterministic sample (every ``1/spot_check``-th point, first point
  always included) is *also* simulated exactly, and the per-channel byte
  error between the two is recorded;
* a spot-check whose error exceeds ``tolerance`` trips the fallback gate:
  that point and **every subsequent point of the experiment** run
  exactly, and the offending estimate is recorded in the manifest's
  ``analytic.outliers`` list — a predicted table is only shipped when
  its spot checks stayed inside the documented band.

Telemetry follows the pattern of the streaming/sharding collectors: the
:func:`experiment` decorator wraps each experiment in
:func:`collect_analytic_telemetry`, and :func:`summarize_analytic`
condenses the session into the ``analytic`` manifest block
(SCHEMA_VERSION 5).
"""

from __future__ import annotations

import contextlib
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

from ..balance.analytic import analyze
from ..errors import AnalysisError
from ..interp.executor import MachineRun, execute
from ..lang.program import Program
from ..machine.layout import LayoutPolicy, MemoryLayout
from ..machine.spec import MachineSpec
from ..options import current_options


@dataclass
class PredictSession:
    """One experiment's predict-then-verify accounting."""

    enabled: bool
    spot_check: float
    tolerance: float
    points: int = 0  # run_or_predict calls
    predicted: int = 0  # points served analytically
    checked: int = 0  # points simulated exactly as spot checks
    fallbacks: int = 0  # over-tolerance / unanalyzable events
    max_error: float = 0.0  # worst per-channel byte error among checks
    outliers: list[dict[str, Any]] = field(default_factory=list)
    fallback_active: bool = False  # gate tripped: simulate from here on

    @property
    def stride(self) -> int:
        """Spot-check every Nth predicted point (the first is always
        checked, so a single-point 'sweep' is still verified)."""
        return max(1, round(1.0 / self.spot_check))


_session: ContextVar[PredictSession | None] = ContextVar(
    "analytic_predict_session", default=None
)


@contextlib.contextmanager
def collect_analytic_telemetry() -> Iterator[PredictSession]:
    """Collect predict-then-verify telemetry for the enclosed experiment.

    The session snapshots the active options at entry; the
    ``@experiment`` wrapper enters the experiment's config first, so the
    session runs exactly its config's mode."""
    options = current_options()
    session = PredictSession(
        options.predict, options.spot_check, options.predict_tolerance
    )
    token = _session.set(session)
    try:
        yield session
    finally:
        _session.reset(token)


def channel_errors(
    predicted: MachineRun, exact: MachineRun
) -> list[tuple[str, float]]:
    """Per-channel relative byte error, labelled with the channel names."""
    names = predicted.machine.level_names
    return [
        (name, abs(p - e) / max(e, 1))
        for name, p, e in zip(
            names,
            predicted.counters.channel_bytes,
            exact.counters.channel_bytes,
        )
    ]


def _spot_check(
    session: PredictSession,
    predicted: MachineRun,
    exact: MachineRun,
) -> bool:
    """Record the check; returns True when the gate tripped."""
    errors = channel_errors(predicted, exact)
    worst_name, worst = max(errors, key=lambda it: it[1])
    session.checked += 1
    session.max_error = max(session.max_error, worst)
    if worst <= session.tolerance:
        return False
    session.fallbacks += 1
    session.fallback_active = True
    session.outliers.append(
        {
            "program": predicted.program,
            "machine": predicted.machine.name,
            "channel": worst_name,
            "error": worst,
            "tolerance": session.tolerance,
        }
    )
    return True


def run_or_predict(
    program: Program,
    machine: MachineSpec,
    params: Mapping[str, int] | None = None,
    *,
    layout: MemoryLayout | None = None,
    layout_policy: LayoutPolicy | None = None,
    passes: int = 1,
    **execute_kwargs: Any,
) -> MachineRun:
    """One sweep point: analytic when predict mode allows it, exact
    otherwise.  A drop-in for :func:`execute` — extra keyword arguments
    (``warmup_passes``, ``flush``, ``sim_cache``, ...) are forwarded to
    the exact path and ignored by the analytic one.

    Exact simulation runs when (a) predict mode is off, (b) the
    experiment's fallback gate has tripped, (c) the point is selected as
    a spot check (the analytic estimate still runs and is compared), or
    (d) the program cannot be analyzed (:class:`AnalysisError`)."""
    session = _session.get()
    if session is not None:
        enabled = session.enabled and not session.fallback_active
    else:
        enabled = current_options().predict

    def simulate() -> MachineRun:
        return execute(
            program,
            machine,
            params=params,
            layout=layout,
            layout_policy=layout_policy,
            passes=passes,
            **execute_kwargs,
        )

    if session is not None:
        session.points += 1
    if not enabled:
        return simulate()

    index = session.predicted + session.checked if session is not None else 0
    try:
        predicted = analyze(
            program,
            machine,
            params,
            layout=layout,
            layout_policy=layout_policy,
            passes=passes,
        ).run()
    except AnalysisError as exc:
        # Not a model error — the program has a shape the analyzer does
        # not cover.  Simulate it, note the event, keep predicting.
        if session is not None:
            session.fallbacks += 1
            session.outliers.append(
                {
                    "program": program.name,
                    "machine": machine.name,
                    "channel": None,
                    "error": None,
                    "reason": str(exc),
                }
            )
        return simulate()

    if session is None:
        return predicted
    if index % session.stride == 0:
        exact = simulate()
        if _spot_check(session, predicted, exact):
            return exact
        # Within tolerance: the exact run is in hand, ship it (the check
        # verifies the *model*; there is no reason to return the
        # approximation when the measurement is free).
        return exact
    session.predicted += 1
    return predicted


def summarize_analytic(session: PredictSession | None) -> dict[str, Any]:
    """The manifest ``analytic`` block (empty when predict mode never
    engaged, matching the stream/shards convention)."""
    if session is None or not session.enabled or session.points == 0:
        return {}
    return {
        "points": session.points,
        "predicted": session.predicted,
        "checked": session.checked,
        "fallbacks": session.fallbacks,
        "sample_rate": session.spot_check,
        "tolerance": session.tolerance,
        "max_error": session.max_error,
        "outliers": list(session.outliers),
    }


__all__ = [
    "PredictSession",
    "channel_errors",
    "collect_analytic_telemetry",
    "run_or_predict",
    "summarize_analytic",
]
