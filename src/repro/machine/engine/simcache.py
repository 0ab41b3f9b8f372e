"""Content-keyed simulation cache.

The runner and the test suite simulate many *identical* instances: the
same kernel, bound to the same sizes, laid out the same way, on the same
machine.  Simulation is deterministic, so the result is a pure function
of (program text, bound parameters, memory layout, machine spec, run
flags).  This module memoizes that function: the key is a SHA-256 over a
canonical rendering of all inputs, the value is the full counter set of
the run (``HierarchyResult`` plus the trace totals the timing model
needs).  A warm hit skips trace generation *and* cache-level simulation
entirely.

Two tiers share one interface: a process-wide in-memory dict (always
cheap, enabled by default) and an optional on-disk store under
``.repro_cache/`` (JSON, one file per key) that persists across
processes — a second ``runner fig1`` performs zero simulation work.
Entries are copied on both put and get (:meth:`SimulationResult.copy`)
because ``CacheStats`` is mutable.  Any change to simulation semantics
must bump :data:`FORMAT_VERSION` to invalidate stale entries.

The disk tier is size-capped (``REPRO_CACHE_MAX_BYTES``, default 2 GB):
after every :data:`_EVICT_EVERY` disk puts the least-recently-used
entries (by mtime, refreshed on disk hits) are unlinked until the tier
fits.  ``tools/cache_stats.py`` reports occupancy and age.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from ...options import current_options
from ..cache import CacheStats
from ..hierarchy import HierarchyResult

#: Bump when simulation semantics or the entry schema change.
FORMAT_VERSION = 1

#: Default on-disk location (relative to the working directory).
DEFAULT_DIR = ".repro_cache"

#: Default size cap of the on-disk tier; override with the
#: ``REPRO_CACHE_MAX_BYTES`` environment variable (0 = unlimited).
DEFAULT_MAX_BYTES = 2 << 30  # 2 GB

#: Disk puts between eviction sweeps (a sweep stats every entry, so it
#: is throttled rather than run per put).
_EVICT_EVERY = 64

#: A claim file older than this is treated as abandoned even if a process
#: with the recorded pid exists (guards against pid reuse after a crash).
CLAIM_STALE_S = 300.0

#: Poll interval while waiting on another process's in-flight simulation.
_CLAIM_POLL_S = 0.02

#: Default bound on how long a waiter polls before simulating anyway.
CLAIM_WAIT_S = 60.0


def cache_max_bytes() -> int:
    """The configured on-disk cap in bytes (0 = unlimited)."""
    raw = os.environ.get("REPRO_CACHE_MAX_BYTES")
    if raw is None:
        return DEFAULT_MAX_BYTES
    try:
        return max(0, int(raw))
    except ValueError:
        return DEFAULT_MAX_BYTES


@dataclass(frozen=True)
class SimulationResult:
    """The cached value: counters plus the trace totals timing needs."""

    result: HierarchyResult
    flops: int
    loads: int
    stores: int

    def copy(self) -> "SimulationResult":
        """A copy sharing nothing mutable: every ``CacheStats`` block is
        copied; the byte counts and totals are ints, immutable already."""
        result = HierarchyResult(
            tuple(CacheStats(**vars(st)) for st in self.result.level_stats),
            tuple(self.result.downstream_bytes),
        )
        return SimulationResult(result, self.flops, self.loads, self.stores)

    def to_json(self) -> dict[str, Any]:
        return {
            "version": FORMAT_VERSION,
            "flops": self.flops,
            "loads": self.loads,
            "stores": self.stores,
            "downstream_bytes": list(self.result.downstream_bytes),
            "level_stats": [vars(st).copy() for st in self.result.level_stats],
        }

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "SimulationResult":
        result = HierarchyResult(
            tuple(CacheStats(**st) for st in data["level_stats"]),
            tuple(int(b) for b in data["downstream_bytes"]),
        )
        return cls(result, int(data["flops"]), int(data["loads"]), int(data["stores"]))


def simulation_key(
    program_text: str,
    params: Mapping[str, int],
    placements: Mapping[str, Any],
    machine_desc: str,
    *,
    passes: int,
    warmup_passes: int,
    flush: bool,
) -> str:
    """SHA-256 content key of one simulation instance.

    The engine is deliberately *not* part of the key: engines are
    bit-identical by contract, so a result computed by one is valid for
    all (the equivalence harness enforces the contract).
    """
    parts = {
        "version": FORMAT_VERSION,
        "program": program_text,
        "params": sorted((k, int(v)) for k, v in params.items()),
        "layout": sorted(
            (name, p.base, list(p.extents), p.element_size)
            for name, p in placements.items()
        ),
        "machine": machine_desc,
        "passes": passes,
        "warmup_passes": warmup_passes,
        "flush": flush,
    }
    blob = json.dumps(parts, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def machine_signature(spec) -> str:
    """The machine parts that affect counters: geometry and layout policy.

    Bandwidths/latencies only affect derived times, which are recomputed
    on every run, so they stay out of the key.
    """
    levels = ";".join(
        f"{lvl.name}:{lvl.geometry.size_bytes}/{lvl.geometry.line_size}"
        f"/{lvl.geometry.associativity}"
        for lvl in spec.cache_levels
    )
    pol = spec.default_layout
    return f"{levels}|layout:{vars(pol)!r}"


@dataclass
class CacheCounters:
    """Observability: how much simulation work the cache absorbed."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    disk_hits: int = 0
    evictions: int = 0  # disk entries removed by the size cap
    claims: int = 0  # cross-process in-flight claims acquired
    claim_waits: int = 0  # waits on another process that ended in its result
    takeovers: int = 0  # stale claims (dead/ancient owner) taken over

    def snapshot(self) -> "CacheCounters":
        return CacheCounters(
            self.hits, self.misses, self.puts, self.disk_hits, self.evictions,
            self.claims, self.claim_waits, self.takeovers,
        )

    def since(self, before: "CacheCounters") -> "CacheCounters":
        return CacheCounters(
            self.hits - before.hits,
            self.misses - before.misses,
            self.puts - before.puts,
            self.disk_hits - before.disk_hits,
            self.evictions - before.evictions,
            self.claims - before.claims,
            self.claim_waits - before.claim_waits,
            self.takeovers - before.takeovers,
        )

    def __str__(self) -> str:
        s = f"{self.hits} cached / {self.misses} simulated"
        if self.disk_hits:
            s += f" ({self.disk_hits} from disk)"
        return s


class SimulationCache:
    """In-memory memo with an optional persistent on-disk tier."""

    def __init__(
        self,
        directory: str | os.PathLike | None = None,
        max_bytes: int | None = None,
    ):
        self._memory: dict[str, SimulationResult] = {}
        self.directory = Path(directory) if directory is not None else None
        #: On-disk size cap in bytes; 0 disables eviction.  ``None``
        #: resolves from ``REPRO_CACHE_MAX_BYTES`` (default 2 GB).
        self.max_bytes = cache_max_bytes() if max_bytes is None else max(0, max_bytes)
        self.counters = CacheCounters()
        self._tmp_serial = itertools.count()
        self._puts_since_evict = 0

    def _path(self, key: str) -> Path:
        assert self.directory is not None
        return self.directory / key[:2] / f"{key}.json"

    def get(self, key: str) -> SimulationResult | None:
        entry = self._memory.get(key)
        if entry is None and self.directory is not None:
            path = self._path(key)
            try:
                data = json.loads(path.read_text())
                if data.get("version") == FORMAT_VERSION:
                    entry = SimulationResult.from_json(data)
                    self._memory[key] = entry
                    self.counters.disk_hits += 1
                    try:
                        # Refresh the entry's recency so the size cap
                        # evicts least-recently-*used*, not least-written.
                        os.utime(path)
                    except OSError:
                        pass
            except (OSError, ValueError, KeyError, TypeError):
                entry = None  # missing or corrupt entry == miss
        if entry is None:
            self.counters.misses += 1
            return None
        self.counters.hits += 1
        return entry.copy()

    def put(self, key: str, value: SimulationResult) -> None:
        self.counters.puts += 1
        self._memory[key] = value.copy()
        if self.directory is not None:
            path = self._path(key)
            # Lock-free multi-process safety: each writer stages the entry
            # under a name unique to (pid, counter) and publishes it with an
            # atomic rename.  Concurrent writers of the same key cannot
            # interleave partial writes — readers see either no file or a
            # complete one, and the last complete write wins (all writers
            # produce identical bytes anyway: simulation is deterministic).
            tmp = path.with_name(
                f"{path.name}.{os.getpid()}.{next(self._tmp_serial)}.tmp"
            )
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
                tmp.write_text(json.dumps(value.to_json()))
                os.replace(tmp, path)
            except OSError:
                # Disk tier is best-effort; memory tier already holds it.
                try:
                    tmp.unlink(missing_ok=True)
                except OSError:
                    pass
            else:
                self._puts_since_evict += 1
                if self._puts_since_evict >= _EVICT_EVERY:
                    self._puts_since_evict = 0
                    self.evict()

    def disk_entries(self) -> list[tuple[Path, int, float]]:
        """Every on-disk entry as ``(path, size_bytes, mtime)``; entries
        that vanish mid-scan (concurrent eviction) are skipped."""
        if self.directory is None:
            return []
        out = []
        try:
            paths = list(self.directory.glob("??/*.json"))
        except OSError:
            return []
        for path in paths:
            try:
                st = path.stat()
            except OSError:
                continue
            out.append((path, st.st_size, st.st_mtime))
        return out

    def evict(self) -> int:
        """Bring the disk tier under :attr:`max_bytes` by unlinking the
        least-recently-used entries (oldest mtime first).  Unlinks are
        atomic and tolerate concurrent writers/evictors — a lost race is
        just an entry someone else already removed.  Returns the number
        of entries evicted."""
        if self.directory is None or not self.max_bytes:
            return 0
        entries = self.disk_entries()
        total = sum(size for _, size, _ in entries)
        if total <= self.max_bytes:
            return 0
        evicted = 0
        for path, size, _ in sorted(entries, key=lambda e: e[2]):
            if total <= self.max_bytes:
                break
            try:
                path.unlink(missing_ok=True)
            except OSError:
                continue
            total -= size
            evicted += 1
            self.counters.evictions += 1
        return evicted

    # -- cross-process in-flight guard ---------------------------------------
    # A sidecar ``<key>.claim`` file marks "some process is simulating this
    # key right now".  It is advisory and purely an optimization: every
    # failure mode (unwritable disk, corrupt claim, timeout, dead owner)
    # degrades to simulating locally, never to a wrong or missing result.

    def _claim_path(self, key: str) -> Path:
        assert self.directory is not None
        return self.directory / key[:2] / f"{key}.claim"

    def _claim_stale(self, path: Path) -> bool:
        """True when the claim's owner is gone (dead pid, vanished file,
        or a claim older than :data:`CLAIM_STALE_S`)."""
        try:
            st = path.stat()
        except OSError:
            return True  # owner released between our EXCL failure and now
        try:
            pid = int(json.loads(path.read_text())["pid"])
        except (OSError, ValueError, KeyError, TypeError):
            pid = None
        if pid is not None:
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                return True
            except OSError:
                pass  # EPERM etc: process exists but is not ours
        return time.time() - st.st_mtime > CLAIM_STALE_S

    def claim(self, key: str) -> bool:
        """Try to claim cross-process ownership of ``key``'s simulation.

        ``True`` means this process should simulate (and must
        :meth:`release` when done, result published or not).  ``False``
        means another live process holds the claim — poll
        :meth:`wait_for` instead of duplicating the work.  Without a
        disk tier there is nothing to coordinate and the answer is
        always ``True``.
        """
        if self.directory is None:
            return True
        path = self._claim_path(key)
        for attempt in range(2):
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
                fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                if attempt == 0 and self._claim_stale(path):
                    try:
                        path.unlink(missing_ok=True)
                    except OSError:
                        return True  # cannot arbitrate: simulate locally
                    self.counters.takeovers += 1
                    continue
                return False
            except OSError:
                return True  # disk trouble never blocks correctness
            try:
                with os.fdopen(fd, "w") as f:
                    f.write(json.dumps({"pid": os.getpid(), "time": time.time()}))
            except OSError:
                pass  # an empty claim file still claims
            self.counters.claims += 1
            return True
        return False

    def release(self, key: str) -> None:
        """Drop this process's claim (idempotent; call after :meth:`put`
        so waiters observe the result before the claim disappears)."""
        if self.directory is None:
            return
        try:
            self._claim_path(key).unlink(missing_ok=True)
        except OSError:
            pass

    def wait_for(
        self, key: str, timeout: float = CLAIM_WAIT_S
    ) -> SimulationResult | None:
        """Poll for the result another process claimed.

        Returns the entry once the owner publishes it, or ``None`` when
        the claim vanishes without a result or ``timeout`` elapses —
        callers then simulate locally, so a waiter can never hang on a
        crashed owner longer than the timeout.
        """
        if self.directory is None:
            return None
        path = self._path(key)
        claim = self._claim_path(key)
        deadline = time.monotonic() + timeout
        while True:
            if path.exists():
                entry = self.get(key)
                if entry is not None:
                    self.counters.claim_waits += 1
                    return entry
            if not claim.exists():
                # Owner released: one final look (result may have landed
                # between our exists() checks), then give up.
                entry = self.get(key) if path.exists() else None
                if entry is not None:
                    self.counters.claim_waits += 1
                return entry
            if time.monotonic() >= deadline:
                return None
            time.sleep(_CLAIM_POLL_S)

    def clear(self) -> None:
        self._memory.clear()

    def __len__(self) -> int:
        return len(self._memory)


def disk_report(cache: SimulationCache) -> dict[str, Any] | None:
    """Structured report on a cache's disk tier (None when it has none).

    Shared by ``tools/cache_stats.py --json`` and the service's stats
    endpoint, so both read the same numbers the same way.
    """
    if cache.directory is None:
        return None
    entries = cache.disk_entries()
    total = sum(size for _, size, _ in entries)
    try:
        live_claims = sum(1 for _ in cache.directory.glob("??/*.claim"))
    except OSError:
        live_claims = 0
    report: dict[str, Any] = {
        "directory": str(cache.directory),
        "entries": len(entries),
        "total_bytes": total,
        "max_bytes": cache.max_bytes,
        "live_claims": live_claims,
    }
    if entries:
        now = time.time()
        ages = sorted(now - mtime for _, _, mtime in entries)
        sizes = sorted(size for _, size, _ in entries)
        report["age_newest_s"] = ages[0]
        report["age_median_s"] = ages[len(ages) // 2]
        report["age_oldest_s"] = ages[-1]
        report["entry_min_bytes"] = sizes[0]
        report["entry_median_bytes"] = sizes[len(sizes) // 2]
        report["entry_max_bytes"] = sizes[-1]
    return report


# -- process-wide default -----------------------------------------------------
_default: SimulationCache | None = SimulationCache()


def get_sim_cache() -> SimulationCache | None:
    """The process default (None when caching is disabled)."""
    return _default


def configure_sim_cache(
    enabled: bool = True, directory: str | os.PathLike | None = None
) -> SimulationCache | None:
    """Replace the process default.

    ``enabled=False`` turns memoization off entirely; a ``directory``
    adds the persistent tier (the runner passes ``.repro_cache/``).
    """
    global _default
    _default = SimulationCache(directory) if enabled else None
    return _default


def resolve_memo(
    sim_cache: SimulationCache | bool | None = None,
) -> SimulationCache | None:
    """The memo one run uses: ``sim_cache`` itself when it is a cache,
    none for ``False``, the process default for ``True``, and for
    ``None`` the process default only if the active options'
    ``sim_cache`` is on."""
    if isinstance(sim_cache, SimulationCache):
        return sim_cache
    if sim_cache is None:
        sim_cache = current_options().sim_cache
    return _default if sim_cache else None
