"""Machine specifications: geometry, bandwidths, latencies, balance.

A :class:`MachineSpec` describes one machine the way the paper's Figure 1
does: a peak flop rate plus a data-transfer bandwidth at every memory
hierarchy level (registers↔L1, L1↔L2, ..., last-cache↔memory). *Machine
balance* is bandwidth divided by peak flop rate, in bytes per flop.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Mapping

from ..errors import MachineError
from .cache import Cache, CacheGeometry
from .layout import LayoutPolicy


@dataclass(frozen=True)
class SaturationCurve:
    """``s(n)``: how the *aggregate* bandwidth drawn from one shared channel
    grows with the number of cores driving it.

    ``multiplier(n)`` returns the aggregate multiplier relative to a single
    core; :class:`ChannelContention` caps the result at the channel's
    ceiling.  Three shapes cover the multicore-ECM literature (Afzal et
    al., PAPERS.md):

    * ``linear`` — perfect scaling until the ceiling cuts it off (the
      classic saturation point ``n_sat = ceiling / single``);
    * ``power`` — ``n**alpha`` with ``0 < alpha <= 1``, a smooth
      diminishing-returns curve;
    * ``table`` — measured multipliers ``table[n-1]``, flat beyond the
      last entry.

    Every shape satisfies ``multiplier(1) == 1.0`` exactly, so one core
    always sees the uncontended channel — the ``n=1`` reduction the
    differential tests pin down bit-for-bit.  Shapes are validated to be
    concave in the weak-scaling sense (aggregate non-decreasing, per-core
    share non-increasing), which makes contended time monotone in the
    core count.
    """

    kind: str = "linear"  # "linear" | "power" | "table"
    alpha: float = 1.0  # exponent for kind="power"
    table: tuple[float, ...] = ()  # aggregate multipliers for kind="table"

    def __post_init__(self) -> None:
        if self.kind not in ("linear", "power", "table"):
            raise MachineError(
                f"saturation curve kind must be linear/power/table, got {self.kind!r}"
            )
        if self.kind == "power" and not 0.0 < self.alpha <= 1.0:
            raise MachineError(
                f"power curve needs 0 < alpha <= 1, got {self.alpha}"
            )
        if self.kind == "table":
            if not self.table or self.table[0] != 1.0:
                raise MachineError("table curve must start at 1.0 (one core)")
            for i in range(1, len(self.table)):
                prev, cur = self.table[i - 1], self.table[i]
                if cur < prev:
                    raise MachineError(
                        "table curve must be non-decreasing (aggregate "
                        "bandwidth cannot shrink with more cores)"
                    )
                if cur * i > prev * (i + 1):
                    raise MachineError(
                        "table curve must have non-increasing per-core "
                        f"share: entry {i + 1} gives each core more than "
                        f"entry {i}"
                    )

    def multiplier(self, n: int) -> float:
        """Aggregate bandwidth multiplier for ``n`` cores (>= 1)."""
        if n < 1:
            raise MachineError(f"core count must be >= 1, got {n}")
        if self.kind == "linear":
            return float(n)
        if self.kind == "power":
            return float(n) ** self.alpha
        return self.table[min(n, len(self.table)) - 1]

    def to_json(self) -> dict[str, Any]:
        return {"kind": self.kind, "alpha": self.alpha, "table": list(self.table)}

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "SaturationCurve":
        return cls(
            kind=data.get("kind", "linear"),
            alpha=float(data.get("alpha", 1.0)),
            table=tuple(float(x) for x in data.get("table", ())),
        )


@dataclass(frozen=True)
class ChannelContention:
    """How one data channel is shared between cores.

    ``sharers`` cores share each physical instance of the channel (1 =
    fully private, ``machine.cores`` = one globally shared channel, e.g.
    the memory bus).  The aggregate bandwidth ``sharers`` active cores can
    draw is ``min(single * curve.multiplier(n), ceiling)`` — the
    ``B_eff(n) = B_ceil * s(n)`` model of the multicore-ECM literature.
    ``ceiling=None`` means the curve alone governs.
    """

    sharers: int = 1
    ceiling: float | None = None  # aggregate bytes/s one instance sustains
    curve: SaturationCurve = field(default_factory=SaturationCurve)

    def __post_init__(self) -> None:
        if self.sharers < 1:
            raise MachineError(f"channel sharers must be >= 1, got {self.sharers}")
        if self.ceiling is not None and self.ceiling <= 0:
            raise MachineError("channel ceiling must be positive")

    @property
    def shared(self) -> bool:
        return self.sharers > 1

    def effective_bandwidth(self, single: float, cores: int) -> float:
        """Aggregate bandwidth ``cores`` co-scheduled cores draw from one
        instance.  ``cores=1`` returns ``single`` verbatim — the exact
        single-core reduction, independent of curve arithmetic."""
        if cores <= 1:
            return single
        raw = single * self.curve.multiplier(cores)
        return min(raw, self.ceiling) if self.ceiling is not None else raw

    def validate_for(self, name: str, single: float, machine_cores: int) -> None:
        """Spec-level consistency: ceilings never undercut the single-core
        bandwidth, sharers never exceed the machine's cores."""
        if self.sharers > machine_cores:
            raise MachineError(
                f"{name}: {self.sharers} sharers on a {machine_cores}-core machine"
            )
        if self.ceiling is not None and self.ceiling < single:
            raise MachineError(
                f"{name}: ceiling {self.ceiling:g} below single-core "
                f"bandwidth {single:g}"
            )

    def to_json(self) -> dict[str, Any]:
        return {
            "sharers": self.sharers,
            "ceiling": self.ceiling,
            "curve": self.curve.to_json(),
        }

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "ChannelContention":
        ceiling = data.get("ceiling")
        return cls(
            sharers=int(data.get("sharers", 1)),
            ceiling=float(ceiling) if ceiling is not None else None,
            curve=SaturationCurve.from_json(data.get("curve") or {}),
        )


@dataclass(frozen=True)
class CacheLevelSpec:
    """One cache level plus the bandwidth/latency of the channel *below* it
    (towards memory): for L1 that is the L1↔L2 channel, for the last cache
    it is the cache↔memory channel."""

    name: str
    geometry: CacheGeometry
    downstream_bandwidth: float  # bytes/second
    downstream_latency: float  # seconds per line transfer (for latency model)
    contention: ChannelContention = field(default_factory=ChannelContention)

    def __post_init__(self) -> None:
        if self.downstream_bandwidth <= 0:
            raise MachineError(f"{self.name}: bandwidth must be positive")
        if self.downstream_latency < 0:
            raise MachineError(f"{self.name}: latency must be non-negative")

    def to_json(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "geometry": {
                "size_bytes": self.geometry.size_bytes,
                "line_size": self.geometry.line_size,
                "associativity": self.geometry.associativity,
            },
            "downstream_bandwidth": self.downstream_bandwidth,
            "downstream_latency": self.downstream_latency,
            "contention": self.contention.to_json(),
        }

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "CacheLevelSpec":
        geo = data["geometry"]
        return cls(
            name=data["name"],
            geometry=CacheGeometry(
                size_bytes=int(geo["size_bytes"]),
                line_size=int(geo["line_size"]),
                associativity=int(geo["associativity"]),
            ),
            downstream_bandwidth=float(data["downstream_bandwidth"]),
            downstream_latency=float(data["downstream_latency"]),
            contention=ChannelContention.from_json(data.get("contention") or {}),
        )


@dataclass(frozen=True)
class MachineSpec:
    """A complete simulated machine."""

    name: str
    peak_flops: float  # flops/second, per core
    register_bandwidth: float  # bytes/second between registers and L1, per core
    cache_levels: tuple[CacheLevelSpec, ...]
    default_layout: LayoutPolicy = field(default_factory=LayoutPolicy)
    register_latency: float = 0.0
    cores: int = 1  # cores available for contended timing (1 = the paper's machines)
    register_contention: ChannelContention = field(default_factory=ChannelContention)

    def __post_init__(self) -> None:
        if self.peak_flops <= 0:
            raise MachineError("peak flop rate must be positive")
        if self.register_bandwidth <= 0:
            raise MachineError("register bandwidth must be positive")
        if not self.cache_levels:
            raise MachineError("a machine needs at least one cache level")
        if self.cores < 1:
            raise MachineError(f"a machine needs at least one core, got {self.cores}")
        self.register_contention.validate_for(
            "register channel", self.register_bandwidth, self.cores
        )
        for lvl in self.cache_levels:
            lvl.contention.validate_for(
                f"{lvl.name} downstream channel",
                lvl.downstream_bandwidth,
                self.cores,
            )

    # -- structure -----------------------------------------------------------
    @property
    def n_levels(self) -> int:
        """Number of data-transfer channels: registers↔L1 plus one per cache."""
        return 1 + len(self.cache_levels)

    @property
    def level_names(self) -> tuple[str, ...]:
        """Channel names, CPU-side first (matches the paper's columns:
        'L1-Reg', 'L2-L1', 'Mem-L2' for a two-cache machine)."""
        names = [f"{self.cache_levels[0].name}-Reg"]
        for i, lvl in enumerate(self.cache_levels):
            below = (
                self.cache_levels[i + 1].name if i + 1 < len(self.cache_levels) else "Mem"
            )
            names.append(f"{below}-{lvl.name}")
        return tuple(names)

    @property
    def bandwidths(self) -> tuple[float, ...]:
        """Bandwidth per channel, same order as :attr:`level_names`."""
        return (self.register_bandwidth,) + tuple(
            lvl.downstream_bandwidth for lvl in self.cache_levels
        )

    @property
    def channel_contention(self) -> tuple[ChannelContention, ...]:
        """Per-channel sharing, same order as :attr:`level_names`."""
        return (self.register_contention,) + tuple(
            lvl.contention for lvl in self.cache_levels
        )

    @property
    def memory_bandwidth(self) -> float:
        """The last channel: last cache ↔ memory."""
        return self.cache_levels[-1].downstream_bandwidth

    @property
    def balance(self) -> tuple[float, ...]:
        """Machine balance: bytes transferable per flop at each channel
        (Figure 1's machine row)."""
        return tuple(bw / self.peak_flops for bw in self.bandwidths)

    # -- factories -----------------------------------------------------------
    def build_caches(self, engine: str | None = None) -> list[Cache]:
        """Fresh simulator instances for every cache level.

        ``engine`` picks the simulator (see :mod:`repro.machine.engine`):
        ``None`` uses the active options' engine, ``"auto"`` selects the
        fastest exact engine per level, ``"reference"`` forces the
        original :class:`Cache` loop everywhere.
        """
        from .engine import make_cache

        last = len(self.cache_levels) - 1
        return [
            make_cache(lvl.name, lvl.geometry, last_level=(i == last), engine=engine)
            for i, lvl in enumerate(self.cache_levels)
        ]

    def scaled(self, factor: int) -> "MachineSpec":
        """A machine with all cache sizes divided by ``factor``.

        Bandwidths and flop rates are unchanged: the scaled machine is the
        same machine with a proportionally smaller working-set regime, which
        keeps every balance ratio intact while letting simulations use small
        arrays. The name gains a ``/factor`` suffix.
        """
        if factor == 1:
            return self
        levels = tuple(
            replace(lvl, geometry=lvl.geometry.scaled(factor)) for lvl in self.cache_levels
        )
        return replace(self, name=f"{self.name}/{factor}", cache_levels=levels)

    # -- wire format ---------------------------------------------------------
    def to_json(self) -> dict[str, Any]:
        """JSON-serializable description, round-tripped by :meth:`from_json`
        (the service protocol ships machines this way)."""
        return {
            "name": self.name,
            "peak_flops": self.peak_flops,
            "register_bandwidth": self.register_bandwidth,
            "register_latency": self.register_latency,
            "cache_levels": [lvl.to_json() for lvl in self.cache_levels],
            "default_layout": self.default_layout.to_json(),
            "cores": self.cores,
            "register_contention": self.register_contention.to_json(),
        }

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "MachineSpec":
        return cls(
            name=data["name"],
            peak_flops=float(data["peak_flops"]),
            register_bandwidth=float(data["register_bandwidth"]),
            cache_levels=tuple(
                CacheLevelSpec.from_json(lvl) for lvl in data["cache_levels"]
            ),
            default_layout=LayoutPolicy.from_json(data.get("default_layout") or {}),
            register_latency=float(data.get("register_latency", 0.0)),
            cores=int(data.get("cores", 1)),
            register_contention=ChannelContention.from_json(
                data.get("register_contention") or {}
            ),
        )

    def describe(self) -> str:
        cores = f", {self.cores} cores" if self.cores > 1 else ""
        lines = [f"{self.name}: peak {self.peak_flops / 1e6:.0f} Mflop/s per core{cores}"]
        for label, bw in zip(self.level_names, self.bandwidths):
            lines.append(f"  {label:>8}: {bw / 1e6:8.1f} MB/s  ({bw / self.peak_flops:.2f} B/flop)")
        for lvl in self.cache_levels:
            lines.append(f"  {lvl.name}: {lvl.geometry}")
        return "\n".join(lines)
