"""Shared experiment configuration: machine scale and problem sizes.

The paper's machines and problems (16 MB arrays against a 4 MB L2) are
scaled down together so a full experiment run takes seconds. ``scale``
divides every cache size; problem sizes are derived so each array keeps
the paper's cache-relative regime (arrays a small multiple of the last
cache). All reported quantities are ratios (balance, demand/supply,
relative times, bandwidth fractions), which are invariant under this
scaling — see DESIGN.md.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Mapping

from ..machine.presets import exemplar, origin2000
from ..machine.spec import MachineSpec
from ..options import ExecOptions, _positive_int

DEFAULT_SCALE = 128


@dataclass(frozen=True)
class ExperimentConfig(ExecOptions):
    """Scale and derived problem sizes for one experiment run.

    The execution options (engine, pipeline, shards, predict, plan,
    cores, memo use) are inherited from :class:`~repro.options.ExecOptions`:
    the ``@experiment`` wrapper makes the config the active options for
    the experiment's body, so a row depends on its config alone, in
    process and in a worker.  ``sim_cache_dir`` names the persistent
    memo tier a battery installs before it starts
    (:func:`~repro.experiments.orchestrator.install_sim_cache`).
    """

    scale: int = DEFAULT_SCALE
    array_cache_factor: int = 4  # arrays >= this multiple of the last cache
    sim_cache_dir: str | None = None  # persistent tier directory (None = memory only)

    def __post_init__(self) -> None:
        super().__post_init__()
        for name in ("scale", "array_cache_factor"):
            value = getattr(self, name)
            if not _positive_int(value):
                raise ValueError(f"{name} must be a positive int, got {value!r}")

    def to_json(self) -> dict[str, Any]:
        """A JSON-serializable snapshot (every field is a plain scalar)."""
        return asdict(self)

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "ExperimentConfig":
        """Rebuild a config; an unknown key raises ``ValueError`` naming
        it, so a misspelled option is never silently the default."""
        unknown = sorted(set(data) - set(cls.__dataclass_fields__))
        if unknown:
            raise ValueError(
                f"unknown config key(s) {', '.join(map(repr, unknown))}; "
                f"known: {', '.join(cls.__dataclass_fields__)}"
            )
        return cls(**data)

    @property
    def origin(self) -> MachineSpec:
        return origin2000(self.scale)

    @property
    def exemplar(self) -> MachineSpec:
        return exemplar(self.scale)

    def stream_elements(self, machine: MachineSpec | None = None) -> int:
        """1-D array length: ``array_cache_factor`` x the last cache."""
        spec = machine or self.origin
        last = spec.cache_levels[-1].geometry.size_bytes
        return max(1024, self.array_cache_factor * last // 8)

    def grid_side(self, machine: MachineSpec | None = None) -> int:
        """2-D side so the square array is ~array_cache_factor x last cache,
        rounded to a multiple of 120 (divisible by the blocked-mm tile sizes
        and, at 8 bytes/element, a row is NOT a multiple of a power-of-two
        cache way, so column sweeps spread across sets instead of thrashing
        a 2-way cache)."""
        spec = machine or self.origin
        last = spec.cache_levels[-1].geometry.size_bytes
        import math

        side = int(math.sqrt(self.array_cache_factor * last / 8))
        return max(120, side // 30 * 30)

    def mm_side(self) -> int:
        """Matrix side for the mm rows: the N^3 trace dominates experiment
        cost, so mm targets only ~2x the last cache (still memory-resident)
        with a side divisible by the tile sizes (30/divisors)."""
        last = self.origin.cache_levels[-1].geometry.size_bytes
        import math

        side = int(math.sqrt(2 * last / 8))
        return max(60, side // 30 * 30)

    def fft_elements(self) -> int:
        """Power-of-two length with the data arrays at least ~2x the last
        cache (log2(N) full sweeps make the FFT trace long, so it targets
        the smaller memory-resident regime)."""
        last = self.origin.cache_levels[-1].geometry.size_bytes
        target = 2 * last // 8
        n = 1024
        while n < target:
            n <<= 1
        return n

    def exemplar_kernel_elements(self) -> int:
        """Array length for the Figure 3 Exemplar runs: array spacing of
        exactly C + C/5 bytes gives the five-array conflict period that
        isolates the 3w6r anomaly (see machine.presets)."""
        cache = self.exemplar.cache_levels[-1].geometry.size_bytes
        assert cache % 5 == 0, "exemplar preset cache must be divisible by 5"
        return (cache + cache // 5) // 8
