"""Producer/consumer overlap for streamed traces.

:func:`prefetch_chunks` wraps any chunk iterator (typically
:meth:`TraceGenerator.chunks`) with a double-buffered background
producer: chunk *k+1* is generated on a worker thread while the caller
simulates chunk *k*.  The hot work on both sides is NumPy, which
releases the GIL in its kernels, so generation and simulation genuinely
overlap on two cores — Afzal et al.'s overlapping-execution picture
applied to the reproduction itself.

Semantics are exactly those of the wrapped iterator: same chunks, same
order, exceptions re-raised in the consumer, and bounded buffering
(``depth`` chunks at most, so peak memory stays O(chunk)).  Abandoning
the generator (``close()``/``break``) stops the producer promptly.

Overlap accounting — seconds the producer spent generating vs seconds
the consumer stalled waiting — is reported to any active
:mod:`repro.trace.telemetry` collector when the stream finishes.
:func:`serial_chunks` reports the same accounting for the serial
pipeline, where the consumer waits out every chunk's generation, and
:func:`stream_chunks` picks the pipeline an ``ExecOptions.stream`` value
names.
"""

from __future__ import annotations

import contextvars
import queue
import threading
import time
from typing import Iterable, Iterator

from . import telemetry
from .events import Trace

#: Chunks buffered ahead of the consumer (2 = classic double buffering).
DEFAULT_DEPTH = 2

#: Seconds a blocked producer waits before re-checking the stop flag.
_POLL = 0.05

_DONE = object()


class _Raised:
    """An exception crossing the thread boundary."""

    __slots__ = ("exc",)

    def __init__(self, exc: BaseException):
        self.exc = exc


def stream_chunks(chunks: Iterable[Trace], stream: bool | str) -> Iterator[Trace]:
    """``chunks`` through the pipeline ``stream`` names: prefetched for
    ``True`` or ``"overlap"``, serial for ``"serial"``, and passed through
    unmeasured otherwise (a chunked run that is not a streamed one)."""
    if stream in (True, "overlap"):
        return prefetch_chunks(chunks)
    if stream == "serial":
        return serial_chunks(chunks)
    return iter(chunks)


def serial_chunks(chunks: Iterable[Trace]) -> Iterator[Trace]:
    """Yield ``chunks`` unchanged on the caller's thread, reporting what
    :func:`prefetch_chunks` reports: every second spent generating is a
    second the consumer waited, so nothing of it is hidden."""
    count, produce_s = 0, 0.0
    iterator = iter(chunks)
    try:
        while True:
            start = time.perf_counter()
            try:
                chunk = next(iterator)
            except StopIteration:
                return
            produce_s += time.perf_counter() - start
            count += 1
            yield chunk
    finally:
        telemetry.record_stream(chunks=count, produce_s=produce_s, wait_s=produce_s)


def prefetch_chunks(
    chunks: Iterable[Trace], depth: int = DEFAULT_DEPTH
) -> Iterator[Trace]:
    """Yield ``chunks`` unchanged, generating up to ``depth`` ahead on a
    background thread."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    buffer: queue.Queue = queue.Queue(maxsize=depth)
    stop = threading.Event()
    state = {"chunks": 0, "produce_s": 0.0}
    # Run the producer under a copy of the caller's context so phase
    # timers and telemetry collectors (contextvars) see its work.
    ctx = contextvars.copy_context()

    def _put(item) -> bool:
        while not stop.is_set():
            try:
                buffer.put(item, timeout=_POLL)
                return True
            except queue.Full:
                continue
        return False

    def _produce() -> None:
        iterator = iter(chunks)
        try:
            while not stop.is_set():
                start = time.perf_counter()
                try:
                    chunk = next(iterator)
                except StopIteration:
                    _put(_DONE)
                    return
                state["produce_s"] += time.perf_counter() - start
                state["chunks"] += 1
                if not _put(chunk):
                    return
        except BaseException as exc:  # noqa: BLE001 — re-raised by consumer
            _put(_Raised(exc))

    thread = threading.Thread(
        target=lambda: ctx.run(_produce), name="repro-trace-producer", daemon=True
    )
    thread.start()
    wait_s = 0.0
    try:
        while True:
            start = time.perf_counter()
            item = buffer.get()
            wait_s += time.perf_counter() - start
            if item is _DONE:
                return
            if isinstance(item, _Raised):
                raise item.exc
            yield item
    finally:
        stop.set()
        # Drain so a producer blocked on a full queue can observe stop.
        try:
            while True:
                buffer.get_nowait()
        except queue.Empty:
            pass
        thread.join(timeout=10.0)
        telemetry.record_stream(
            chunks=state["chunks"], produce_s=state["produce_s"], wait_s=wait_s
        )
