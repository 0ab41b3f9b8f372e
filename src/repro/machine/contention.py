"""Multicore contended timing: N cores sharing bandwidth ceilings.

The paper's bound — a program whose memory demand/supply ratio is R can
use at most 1/R of the CPU — gets strictly *worse* when N cores share one
memory channel: per-core supply is ``B_eff(n) / n`` with
``B_eff(n) = min(B_single * s(n), B_ceil)``, the saturation model of the
multicore-ECM literature (Afzal et al., PAPERS.md).  This module prices
that model over the counters the simulator already produces:

* :func:`contended_time` takes one :class:`CoreWork` per core — flops and
  per-channel bytes, exactly the quantities
  :func:`~repro.machine.timing.bandwidth_bound_time` consumes — and
  returns a :class:`ContendedBreakdown`.  Cores are grouped onto channel
  instances by each channel's ``sharers`` (private channels: one core per
  instance; the memory bus: everyone), each instance is work-conserving
  (busy ``sum(bytes) / B_eff(occupancy)`` seconds), and the channel's
  contended time is the slowest instance.  With one core every channel
  instance holds one core at its single-core bandwidth, so the result is
  **bit-identical** to ``bandwidth_bound_time`` — the differential suite
  pins this down across every preset and paper workload.

* Per-shard counters from a :class:`~repro.machine.engine.sharded.ShardedHierarchy`
  map onto cores via :func:`works_from_shards` (each shard's traffic is
  one core's traffic); merged counters split evenly via
  :func:`split_work`.  Manifest-visible timing always uses the even
  split of the *merged* counters so cold runs, sim-cache hits and
  sharded runs agree bit-for-bit; the honest per-shard imbalance lands
  in the ``contention`` telemetry block instead.

The core count is the ``cores`` execution option
(:class:`repro.options.ExecOptions`, the runner's ``--cores`` flag),
read by :func:`resolve_cores` for the executor and the analytic
predictor alike, so ``--predict`` sweeps price the contended channel
identically.
"""

from __future__ import annotations

import contextvars
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, Sequence, Tuple

from ..errors import MachineError
from ..options import override_options
from .spec import ChannelContention, MachineSpec, SaturationCurve
from .timing import TimeBreakdown, bandwidth_bound_time

__all__ = [
    "ChannelContention",
    "ContendedBreakdown",
    "CoreWork",
    "SaturationCurve",
    "collect_contention_telemetry",
    "contended_balance",
    "contended_bound_time",
    "contended_time",
    "machine_balance_at",
    "maybe_contended",
    "record_contention",
    "record_contention_fallback",
    "resolve_cores",
    "split_work",
    "summarize_contention",
    "works_from_shards",
]


@dataclass(frozen=True)
class CoreWork:
    """One core's share of a run: flops plus bytes per channel (register
    channel via ``register_bytes``, one entry per cache level below)."""

    flops: int
    register_bytes: int
    downstream_bytes: tuple[int, ...]


def _split_int(value: int, parts: int) -> tuple[int, ...]:
    q, r = divmod(int(value), parts)
    return tuple(q + 1 if i < r else q for i in range(parts))


def split_work(
    flops: int,
    register_bytes: int,
    downstream_bytes: Sequence[int],
    cores: int,
) -> tuple[CoreWork, ...]:
    """Deterministic even split of merged counters across ``cores``
    (remainders go to the lowest-numbered cores, byte for byte)."""
    if cores < 1:
        raise MachineError(f"core count must be >= 1, got {cores}")
    fl = _split_int(flops, cores)
    rb = _split_int(register_bytes, cores)
    db = [_split_int(b, cores) for b in downstream_bytes]
    return tuple(
        CoreWork(fl[i], rb[i], tuple(col[i] for col in db)) for i in range(cores)
    )


def works_from_shards(shard_results: Sequence[tuple], flops: int, register_bytes: int) -> tuple[CoreWork, ...]:
    """Map :meth:`ShardedHierarchy.shard_results` snapshots onto cores:
    each shard's downstream traffic is one core's traffic.  Flops and
    register bytes are trace-level (not sharded), so they split evenly.
    Shards are ordered by shard id — the mapping is deterministic."""
    ordered = sorted(shard_results, key=lambda s: s[0])
    n = len(ordered)
    fl = _split_int(flops, n)
    rb = _split_int(register_bytes, n)
    return tuple(
        CoreWork(fl[i], rb[i], tuple(res.downstream_bytes))
        for i, (_shard, res, *_rest) in enumerate(ordered)
    )


@dataclass(frozen=True)
class ContendedBreakdown(TimeBreakdown):
    """A :class:`TimeBreakdown` priced under contention.

    ``flop_time`` is the slowest core's flop time, ``channel_times`` are
    the contended channel times (slowest instance per channel), so
    ``total``/``bound``/``cpu_utilization`` carry the paper's semantics
    unchanged — ``cpu_utilization`` is the fraction of *per-core* peak the
    binding resource permits.  ``per_core`` holds each core's uncontended
    view (its own bytes at full channel speed); the gap between a
    channel's contended time and its best per-core time is the contention
    penalty.  ``saturation[i]`` is the channel's scaling efficiency
    ``B_eff(occ) / (occ * B_single)`` in (0, 1] — 1.0 means private or
    perfectly scaled; its reciprocal is the balance-gap delta vs. one
    core."""

    cores: int
    per_core: tuple[TimeBreakdown, ...]
    saturation: tuple[float, ...]

    @property
    def balance_gap(self) -> tuple[float, ...]:
        """Per-channel factor by which per-core supply shrank vs. one
        core: ``occ * B_single / B_eff(occ)`` = 1 / saturation."""
        return tuple(1.0 / s for s in self.saturation)

    def to_json(self) -> Dict[str, Any]:
        return {
            "machine": self.machine,
            "cores": self.cores,
            "total": self.total,
            "bound": self.bound,
            "cpu_utilization": self.cpu_utilization,
            "flop_time": self.flop_time,
            "channel_names": list(self.channel_names),
            "channel_times": list(self.channel_times),
            "saturation": list(self.saturation),
            "balance_gap": list(self.balance_gap),
            "per_core": [
                {
                    "flop_time": b.flop_time,
                    "channel_times": list(b.channel_times),
                    "total": b.total,
                }
                for b in self.per_core
            ],
        }


def contended_time(spec: MachineSpec, works: Sequence[CoreWork]) -> ContendedBreakdown:
    """Contended execution time of ``works[i]`` running on core ``i``.

    Cores are grouped onto channel instances in index order (channel with
    ``sharers=s``: cores ``[0, s)`` share the first instance, ``[s, 2s)``
    the next, ...).  Each instance is work-conserving: it is busy
    ``sum(bytes) / B_eff(occupancy)`` seconds; the channel's time is its
    slowest instance; the total is the familiar max over the flop time
    and every channel."""
    n = len(works)
    if n < 1:
        raise MachineError("contended_time needs at least one core's work")
    if n > spec.cores:
        raise MachineError(
            f"{spec.name} has {spec.cores} core(s); got work for {n}"
        )
    for w in works:
        if len(w.downstream_bytes) != len(spec.cache_levels):
            raise MachineError(
                f"{spec.name} has {len(spec.cache_levels)} cache levels, "
                f"got {len(w.downstream_bytes)} traffic entries"
            )
    per_core = tuple(
        bandwidth_bound_time(spec, w.flops, w.register_bytes, w.downstream_bytes)
        for w in works
    )
    flop_time = max(b.flop_time for b in per_core)
    channel_times = []
    saturation = []
    for ci, (single, cont) in enumerate(zip(spec.bandwidths, spec.channel_contention)):
        worst_t = 0.0
        worst_sat = 1.0
        for start in range(0, n, cont.sharers):
            group = works[start : start + cont.sharers]
            occ = len(group)
            if ci == 0:
                total_bytes = sum(w.register_bytes for w in group)
            else:
                total_bytes = sum(w.downstream_bytes[ci - 1] for w in group)
            eff = cont.effective_bandwidth(single, occ)
            t = total_bytes / eff
            if t > worst_t:
                worst_t = t
            sat = eff / (occ * single) if occ > 1 else 1.0
            if sat < worst_sat:
                worst_sat = sat
        channel_times.append(worst_t)
        saturation.append(worst_sat)
    return ContendedBreakdown(
        machine=spec.name,
        flop_time=flop_time,
        channel_times=tuple(channel_times),
        channel_names=spec.level_names,
        cores=n,
        per_core=per_core,
        saturation=tuple(saturation),
    )


def contended_bound_time(
    spec: MachineSpec,
    cores: int,
    flops: int,
    register_bytes: int,
    downstream_bytes: Sequence[int],
) -> ContendedBreakdown:
    """Contended time of merged counters split evenly across ``cores`` —
    the deterministic manifest-visible pricing (cold runs, sim-cache hits
    and sharded runs all agree)."""
    return contended_time(
        spec, split_work(flops, register_bytes, downstream_bytes, cores)
    )


# -- machine balance under contention ------------------------------------------


def machine_balance_at(spec: MachineSpec, cores: int) -> tuple[float, ...]:
    """Per-channel machine balance (bytes per flop *per core*) with
    ``cores`` active: ``(B_eff(occ) / occ) / peak``.  At ``cores=1`` this
    is exactly :attr:`MachineSpec.balance`."""
    if cores < 1 or cores > spec.cores:
        raise MachineError(f"{spec.name}: cores must be in [1, {spec.cores}]")
    out = []
    for single, cont in zip(spec.bandwidths, spec.channel_contention):
        occ = min(cont.sharers, cores)
        eff = cont.effective_bandwidth(single, occ)
        out.append((eff / occ) / spec.peak_flops if occ > 1 else single / spec.peak_flops)
    return tuple(out)


def contended_balance(spec: MachineSpec, cores: int) -> tuple[float, ...]:
    """Balance-gap delta vs. one core, per channel: how many times less
    bandwidth per flop each core has at ``cores`` than alone (>= 1)."""
    base = spec.balance
    at = machine_balance_at(spec, cores)
    return tuple(b / a for b, a in zip(base, at))


def resolve_cores(spec: MachineSpec, cores: int | None = None) -> int:
    """Effective core count for a run on ``spec``: the request (or the
    active options' ``cores``) clamped to the machine's cores, with a
    telemetry flag when clamped — mirrors the sharded engine's serial
    fallback."""
    n = override_options(cores=cores).cores
    if n > spec.cores:
        record_contention_fallback(n, spec.cores, spec.name)
        return spec.cores
    return n


def maybe_contended(
    spec: MachineSpec,
    flops: int,
    register_bytes: int,
    downstream_bytes: Sequence[int],
    cores: int | None = None,
) -> ContendedBreakdown | None:
    """The contended breakdown for a run, or ``None`` when one core is in
    effect (the paper's model needs no overlay).  Shared by the executor
    and the analytic predictor so simulated and predicted runs price the
    contended channel through identical arithmetic."""
    n = resolve_cores(spec, cores)
    if n <= 1:
        return None
    breakdown = contended_bound_time(spec, n, flops, register_bytes, downstream_bytes)
    record_contention(spec, breakdown)
    return breakdown


# -- telemetry -----------------------------------------------------------------

#: Accumulated keys: cores, runs, fallback_runs, fallback_reason, and the
#: widest run's per-channel snapshot (machine, channels).
Accumulator = Dict[str, Any]

_collectors: contextvars.ContextVar[Tuple[Accumulator, ...]] = contextvars.ContextVar(
    "repro_contention_telemetry", default=()
)


def collecting() -> bool:
    """True when some enclosing context wants contention telemetry."""
    return bool(_collectors.get())


def record_contention(
    spec: MachineSpec,
    breakdown: ContendedBreakdown,
    *,
    source: str = "even-split",
) -> None:
    """Attribute one contended pricing to every active collector.  The
    per-channel snapshot kept is the widest (most cores) run seen;
    ``source`` records whether per-core traffic came from the even split
    of merged counters or from real per-shard counters."""
    uncontended = max(
        (b.total for b in breakdown.per_core), default=breakdown.total
    )
    for acc in _collectors.get():
        acc["runs"] = acc.get("runs", 0) + 1
        if breakdown.cores >= acc.get("cores", 0):
            acc["cores"] = breakdown.cores
            acc["machine"] = spec.name
            acc["source"] = source
            acc["bound"] = breakdown.bound
            acc["cpu_utilization"] = breakdown.cpu_utilization
            acc["slowdown"] = (
                breakdown.total / uncontended if uncontended > 0 else 1.0
            )
            acc["channels"] = [
                {
                    "name": name,
                    "saturation": sat,
                    "balance_gap": gap,
                }
                for name, sat, gap in zip(
                    breakdown.channel_names,
                    breakdown.saturation,
                    breakdown.balance_gap,
                )
            ]
            acc["per_core_totals"] = [b.total for b in breakdown.per_core]


def record_contention_fallback(requested: int, available: int, machine: str) -> None:
    """Attribute one clamp (more cores requested than the machine has)."""
    for acc in _collectors.get():
        acc["fallback_runs"] = acc.get("fallback_runs", 0) + 1
        acc["fallback_reason"] = (
            f"requested {requested} cores, {machine} has {available}"
        )


@contextmanager
def collect_contention_telemetry() -> Iterator[Accumulator]:
    """Collect contended-timing telemetry for the duration of the block."""
    acc: Accumulator = {}
    token = _collectors.set(_collectors.get() + (acc,))
    try:
        yield acc
    finally:
        _collectors.reset(token)


def summarize_contention(acc: Accumulator) -> Dict[str, Any]:
    """Accumulator -> manifest-ready ``contention`` record ({} when
    contended timing never engaged)."""
    if not acc.get("runs") and not acc.get("fallback_runs"):
        return {}
    out: Dict[str, Any] = {
        "cores": int(acc.get("cores", 1)),
        "runs": int(acc.get("runs", 0)),
    }
    if acc.get("machine"):
        out["machine"] = str(acc["machine"])
        out["source"] = str(acc.get("source", "even-split"))
        out["bound"] = str(acc.get("bound", ""))
        out["cpu_utilization"] = round(float(acc.get("cpu_utilization", 1.0)), 6)
        out["slowdown_vs_1core"] = round(float(acc.get("slowdown", 1.0)), 6)
        out["channels"] = [
            {
                "name": str(c["name"]),
                "saturation": round(float(c["saturation"]), 6),
                "balance_gap": round(float(c["balance_gap"]), 6),
            }
            for c in acc.get("channels", [])
        ]
    if acc.get("fallback_runs"):
        out["fallback_runs"] = int(acc["fallback_runs"])
        out["fallback_reason"] = str(acc.get("fallback_reason", ""))
    return out
