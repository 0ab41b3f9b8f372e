"""Common interface of the vectorized cache engines.

An engine is a drop-in replacement for :class:`repro.machine.cache.Cache`:
same constructor signature, same ``run``/``flush``/``access``/``reset``
surface, and — the load-bearing contract — **bit-identical**
:class:`CacheStats` and downstream event streams on every input.  The
reference ``Cache`` stays the executable specification; engines are
cross-checked against it by the equivalence harness
(:mod:`repro.machine.engine.verify`) on randomized traces.
"""

from __future__ import annotations

import numpy as np

from ...errors import MachineError
from ..cache import CacheGeometry, CacheStats


class BaseEngine:
    """Shared plumbing: policy validation, stats block, single access."""

    #: Engine registry name, e.g. ``"direct"``; the reference ``Cache``
    #: reports ``"reference"``.
    engine = "base"

    def __init__(
        self,
        name: str,
        geometry: CacheGeometry,
        write_back: bool = True,
        write_allocate: bool = True,
    ):
        if not write_back and write_allocate:
            raise MachineError("write-through caches must be no-write-allocate in this model")
        self.name = name
        self.geometry = geometry
        self.write_back = write_back
        self.write_allocate = write_allocate
        self.stats = CacheStats()
        self._line_shift = geometry.line_size.bit_length() - 1

    # -- the batch interface engines implement -------------------------------
    def run(
        self,
        byte_addrs: np.ndarray,
        is_write: np.ndarray,
        collect_events: bool = True,
        spans: tuple = (),
        out_spans: list | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Simulate an ordered access batch; state carries across calls.

        Returns the ordered ``(byte_addrs, is_write)`` stream sent to the
        next level.  ``collect_events=False`` declares that the caller
        discards that stream (the last hierarchy level): an engine may
        then skip building it and return empty arrays, but its counters
        and state must come out exactly as with ``True``.

        ``spans`` are the batch's loop-span hints: the trace's own
        (``Trace.spans``) at the first level, those the level above put in
        its ``out_spans`` below it.  An engine may use them to go faster
        and must otherwise ignore them; they never change a counter or an
        event.

        ``out_spans``, when a list, receives the hints of the returned
        stream: an engine that emitted a stretch of it from one simulated
        template (each row the template's events, each moved by a fixed
        per-event delta) appends it as ``(offset, rows, events per row)``.
        They are advisory like trace hints (the next level checks every
        one); engines that ignore hints append none.
        """
        raise NotImplementedError

    def flush(self) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def _reset_state(self) -> None:
        raise NotImplementedError

    @property
    def resident_lines(self) -> int:
        raise NotImplementedError

    # -- shared behaviour -----------------------------------------------------
    def access(self, byte_addr: int, is_write: bool) -> tuple[bool, int | None]:
        """Access one address. Returns (hit, writeback_byte_addr|None)."""
        before = self.stats.misses
        out, out_w = self.run(
            np.asarray([byte_addr], dtype=np.int64), np.asarray([is_write], dtype=bool)
        )
        hit = self.stats.misses == before
        wbs = out[out_w]
        # A single access evicts at most one line, so it can emit at most
        # one writeback (write-throughs of the access itself included).
        assert len(wbs) <= 1, f"single access emitted {len(wbs)} writebacks"
        return hit, (int(wbs[0]) if len(wbs) else None)

    def reset(self) -> None:
        """Invalidate contents and zero counters."""
        self.stats = CacheStats()
        self._reset_state()

    def reset_stats(self) -> None:
        """Zero counters but keep cache contents (post-warmup measurement)."""
        self.stats = CacheStats()

    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}({self.name}, {self.geometry})"
