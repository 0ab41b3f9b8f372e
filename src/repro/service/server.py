"""The repro daemon: asyncio front-end, continuous batching core, drain logic.

The shape is a continuous-batching inference server, applied to cache
simulation:

- an asyncio acceptor speaks the JSON-lines protocol on a unix or TCP
  socket (one message per line, many requests per connection);
- every sweep point is parsed once, into a
  :class:`~repro.service.protocol.WirePoint`, and **content-keyed**
  (:func:`~repro.experiments.plan.request_key`); a bounded LRU memo
  from a point's wire content to its parsed ``WirePoint`` lets a point
  sent again skip parsing and keying altogether, on the event loop and
  in the worker; identical in-flight points — within one request or
  across clients — collapse onto one :class:`asyncio.Future`, so the
  work runs once and every subscriber gets the same answer
  (``dedup_hits`` telemetry);
- admitted points enter a bounded queue; the **batch loop** is
  continuous: whenever the worker is free it takes the oldest point plus
  every compatible point already queued (same kind, up to ``max_batch``;
  an experiment alone) and executes them at once, as one planned
  :func:`~repro.experiments.plan.run_batch` on the worker executor —
  overlapping sweeps from independent clients share trace generation and
  cache-prefix simulation exactly like one planned batch;
- **admission control** keeps the daemon honest under load: a full
  queue, an over-quota tenant, or a draining server answers with an
  explicit reject (``queue_full`` / ``over_quota`` / ``draining``)
  immediately — a client is never left hanging;
- **SIGTERM drains**: new work is rejected, queued and in-flight batches
  finish, every waiting client gets its response, then the server writes
  a run manifest (when ``results_dir`` is set) whose ``service`` block
  carries the full telemetry, and exits cleanly.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import contextlib
import functools
import json
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Any, Mapping

from ..errors import ReproError
from ..experiments.config import ExperimentConfig
from ..experiments.orchestrator import build_manifest, write_manifest
from ..experiments.plan import request_key
from ..experiments.result import ExperimentResult
from ..machine.engine.simcache import disk_report, get_sim_cache
from . import executor as jobs
from .protocol import (
    MAX_LINE_BYTES,
    OPS,
    ProtocolError,
    WirePoint,
    decode,
    encode,
    error_response,
    ok_response,
    progress_event,
)

#: Parsed points the admission memo keeps (least recently sent evicted
#: first).  A parsed, keyed point is about 10 kB, so the memo stays near
#: 10 MB at most.
_ADMISSION_MEMO_POINTS = 1024

_PLAN_COUNTER_KEYS = (
    "groups",
    "points",
    "accesses_requested",
    "accesses_simulated",
    "traces_generated",
)


@dataclass
class ServeConfig:
    """Tuning knobs of one daemon instance."""

    unix_path: str | None = None  # unix socket path; None -> TCP
    host: str = "127.0.0.1"
    port: int = 0  # 0 -> ephemeral (read the bound port off .address)
    max_batch: int = 32  # points coalesced into one executor batch
    max_queue: int = 1024  # admission bound on queued points
    tenant_quota: int = 512  # outstanding points per tenant
    jobs: int = 0  # 0 -> in-process worker thread; N>0 -> fork pool
    plan: bool = True  # answer batches through the sweep planner
    results_dir: str | None = None  # write a drain manifest here


@dataclass
class _Point:
    """One queued unit of work (a deduplicated key and its future)."""

    kind: str  # "simulate" | "predict" | "experiment"
    key: str
    payload: Any  # WirePoint (simulate/predict) or (name, config) tuple
    future: asyncio.Future = field(repr=False)


class Server:
    """One daemon instance.  Drive with :meth:`start` + :meth:`wait_closed`
    inside a running event loop, or use :class:`BackgroundServer` /
    ``repro serve`` from synchronous code."""

    def __init__(self, config: ServeConfig | None = None):
        self.config = config or ServeConfig()
        self.address: str | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.AbstractServer | None = None
        self._queue: asyncio.Queue[_Point] = asyncio.Queue()
        self._inflight: dict[str, asyncio.Future] = {}
        self._batch_task: asyncio.Task | None = None
        self._done = asyncio.Event()
        self._draining = False
        self._drain_task: asyncio.Task | None = None
        self._pool: concurrent.futures.Executor | None = None
        self._connections: set[asyncio.StreamWriter] = set()
        self._experiment_results: list[ExperimentResult] = []
        # Wire content -> parsed, keyed point; touched on the loop thread only.
        self._admission_memo: OrderedDict[str, WirePoint] = OrderedDict()
        # -- telemetry ------------------------------------------------------
        self._t0 = time.monotonic()
        self._requests = 0
        self._completed = 0
        self._rejected: dict[str, int] = {}
        self._dedup_hits = 0
        self._batches = 0
        self._batch_points = 0
        self._batch_max = 0
        self._fallbacks = 0
        self._queue_high_water = 0
        self._latencies_ms: deque[float] = deque(maxlen=4096)
        self._plan_totals: dict[str, Any] = {}
        self._cache_totals: dict[str, int] = {}
        self._tenants: dict[str, dict[str, int]] = {}
        self._tenant_outstanding: dict[str, int] = {}

    # -- lifecycle ------------------------------------------------------------
    async def start(self) -> str:
        """Bind sockets, start the batch loop; returns the address
        (``unix:<path>`` or ``tcp:<host>:<port>``, with the real bound
        port when an ephemeral one was requested)."""
        self._loop = asyncio.get_running_loop()
        if self.config.jobs > 0:
            import multiprocessing

            self._pool = concurrent.futures.ProcessPoolExecutor(
                self.config.jobs, mp_context=multiprocessing.get_context("fork")
            )
        else:
            self._pool = concurrent.futures.ThreadPoolExecutor(
                1, thread_name_prefix="repro-serve-exec"
            )
        if self.config.unix_path is not None:
            self._server = await asyncio.start_unix_server(
                self._handle_connection, path=self.config.unix_path, limit=MAX_LINE_BYTES
            )
            self.address = f"unix:{self.config.unix_path}"
        else:
            self._server = await asyncio.start_server(
                self._handle_connection,
                host=self.config.host,
                port=self.config.port,
                limit=MAX_LINE_BYTES,
            )
            port = self._server.sockets[0].getsockname()[1]
            self.address = f"tcp:{self.config.host}:{port}"
        self._batch_task = asyncio.create_task(self._batch_loop(), name="repro-serve-batch")
        return self.address

    async def wait_closed(self) -> None:
        await self._done.wait()

    def request_shutdown(self) -> None:
        """Begin a graceful drain (idempotent; signal-handler safe when
        called via ``loop.add_signal_handler``)."""
        if self._loop is None or self._drain_task is not None:
            return
        self._drain_task = self._loop.create_task(self.drain(), name="repro-serve-drain")

    def request_shutdown_threadsafe(self) -> None:
        if self._loop is not None:
            try:
                self._loop.call_soon_threadsafe(self.request_shutdown)
            except RuntimeError:
                # The loop already closed: a client's shutdown drained
                # and stopped the server first, so there is nothing left.
                pass

    async def drain(self) -> None:
        """Reject new work, finish everything admitted, answer every
        waiting client, write the manifest, stop."""
        self._draining = True
        while self._inflight or not self._queue.empty():
            await asyncio.sleep(0.02)
        if self._batch_task is not None:
            # Nothing queued or in flight: the loop is idle in queue.get().
            self._batch_task.cancel()
            await asyncio.gather(self._batch_task, return_exceptions=True)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for writer in list(self._connections):
            # Every admitted request has been answered; close the idle
            # connections so their handlers exit before the loop does.
            # A draining handler answers a line it has read before its first
            # await (``_admit`` rejects synchronously); an unread line sees
            # end-of-stream, which the client raises as a ConnectionError.
            with contextlib.suppress(Exception):
                writer.close()
        if self._pool is not None:
            self._pool.shutdown(wait=True)
        if self.config.results_dir is not None:
            manifest = build_manifest(
                self._experiment_results,
                jobs=max(1, self.config.jobs),
                service=self.stats_block(),
            )
            write_manifest(manifest, self.config.results_dir)
        self._done.set()

    # -- telemetry ------------------------------------------------------------
    def _merge_plan(self, block: Mapping[str, Any]) -> None:
        if not block:
            return
        totals = self._plan_totals
        for k in _PLAN_COUNTER_KEYS:
            totals[k] = totals.get(k, 0) + int(block.get(k, 0))
        by_rule = totals.setdefault("by_rule", {})
        for rule, n in block.get("by_rule", {}).items():
            by_rule[rule] = by_rule.get(rule, 0) + int(n)
        totals.setdefault("fallbacks", []).extend(block.get("fallbacks", ()))

    def _merge_cache(self, block: Mapping[str, int]) -> None:
        for k, v in block.items():
            self._cache_totals[k] = self._cache_totals.get(k, 0) + int(v)

    def _tenant(self, name: str) -> dict[str, int]:
        return self._tenants.setdefault(
            name, {"requests": 0, "completed": 0, "rejected": 0}
        )

    @staticmethod
    def _percentile(values: list[float], q: float) -> float | None:
        if not values:
            return None
        return values[min(len(values) - 1, int(q * len(values)))]

    def stats_block(self) -> dict[str, Any]:
        """The manifest/stats ``service`` telemetry block (see
        ``docs/result.schema.json`` definition ``service``)."""
        lat = sorted(self._latencies_ms)
        cache = get_sim_cache()
        return {
            "uptime_s": time.monotonic() - self._t0,
            "requests": self._requests,
            "completed": self._completed,
            "rejected": dict(self._rejected),
            "queue_depth": self._queue.qsize(),
            "queue_max": self._queue_high_water,
            "inflight": len(self._inflight),
            "dedup_hits": self._dedup_hits,
            "batches": self._batches,
            "batch_max": self._batch_max,
            "batch_mean": (self._batch_points / self._batches) if self._batches else None,
            "latency_p50_ms": self._percentile(lat, 0.50),
            "latency_p95_ms": self._percentile(lat, 0.95),
            "fallbacks": self._fallbacks,
            "plan": dict(self._plan_totals),
            "sim_cache": dict(self._cache_totals),
            "disk_cache": disk_report(cache) if cache is not None else None,
            "tenants": {k: dict(v) for k, v in self._tenants.items()},
        }

    # -- continuous batching core ----------------------------------------------
    async def _batch_loop(self) -> None:
        carry: _Point | None = None
        while True:
            item = carry if carry is not None else await self._queue.get()
            carry = None
            batch = [item]
            limit = 1 if item.kind == "experiment" else self.config.max_batch
            while len(batch) < limit and not self._queue.empty():
                nxt = self._queue.get_nowait()
                if nxt.kind != item.kind:
                    carry = nxt  # incompatible: opens the next batch instead
                    break
                batch.append(nxt)
            await self._execute_batch(batch)

    async def _execute_batch(self, batch: list[_Point]) -> None:
        assert self._loop is not None and self._pool is not None
        self._batches += 1
        self._batch_points += len(batch)
        self._batch_max = max(self._batch_max, len(batch))
        kind, payloads = batch[0].kind, [p.payload for p in batch]
        if kind == "simulate":
            job = functools.partial(jobs.run_simulate_job, payloads, plan=self.config.plan)
        elif kind == "predict":
            job = functools.partial(jobs.run_predict_job, payloads)
        else:
            job = functools.partial(jobs.run_experiment_job, *payloads[0])
        try:
            outcome = await self._loop.run_in_executor(self._pool, job)
        except Exception as exc:  # noqa: BLE001 — executor died: fail the batch, not the server
            self._fallbacks += 1
            for point in batch:
                if self._inflight.get(point.key) is point.future:
                    del self._inflight[point.key]
                if not point.future.done():
                    point.future.set_exception(
                        ReproError(f"batch execution failed: {type(exc).__name__}: {exc}")
                    )
            return
        self._merge_plan(outcome.get("plan", {}))
        self._merge_cache(outcome.get("sim_cache", {}))
        self._fallbacks += int(outcome.get("fallbacks", 0))
        for point, result in zip(batch, outcome["results"]):
            if self._inflight.get(point.key) is point.future:
                del self._inflight[point.key]
            if not point.future.done():
                point.future.set_result(result)

    # -- admission ------------------------------------------------------------
    def _admit(
        self, kind: str, keyed: list[tuple[str, Any]], tenant: str
    ) -> tuple[str, str] | list[asyncio.Future]:
        """Admit a request's points (dedup + enqueue) or reject it.

        Returns the per-point futures in request order, or a
        ``(code, message)`` reject.  All-or-nothing: a rejected request
        enqueues no work.
        """
        assert self._loop is not None
        if self._draining:
            return ("draining", "server is draining; resubmit elsewhere")
        fresh = {key for key, _ in keyed if key not in self._inflight}
        if self._queue.qsize() + len(fresh) > self.config.max_queue:
            return (
                "queue_full",
                f"admission queue is full "
                f"({self._queue.qsize()} queued, {len(fresh)} new, "
                f"cap {self.config.max_queue}); retry later",
            )
        outstanding = self._tenant_outstanding.get(tenant, 0)
        if outstanding + len(keyed) > self.config.tenant_quota:
            return (
                "over_quota",
                f"tenant {tenant!r} has {outstanding} outstanding point(s); "
                f"{len(keyed)} more would exceed the quota of {self.config.tenant_quota}",
            )
        futures: list[asyncio.Future] = []
        for key, payload in keyed:
            future = self._inflight.get(key)
            if future is not None:
                self._dedup_hits += 1
            else:
                future = self._loop.create_future()
                self._inflight[key] = future
                self._queue.put_nowait(_Point(kind, key, payload, future))
            futures.append(future)
        self._queue_high_water = max(self._queue_high_water, self._queue.qsize())
        self._tenant_outstanding[tenant] = outstanding + len(keyed)
        return futures

    def _release_tenant(self, tenant: str, n: int) -> None:
        left = self._tenant_outstanding.get(tenant, 0) - n
        if left > 0:
            self._tenant_outstanding[tenant] = left
        else:
            self._tenant_outstanding.pop(tenant, None)

    # -- the protocol front-end ------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ValueError, asyncio.LimitOverrunError):
                    writer.write(
                        encode(error_response(None, "invalid", "request line too long"))
                    )
                    await writer.drain()
                    break
                if not line:
                    break
                response = await self._handle_message(line, writer)
                if response is not None:
                    writer.write(encode(response))
                    await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away; its futures resolve harmlessly
        finally:
            self._connections.discard(writer)
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _handle_message(
        self, line: bytes, writer: asyncio.StreamWriter
    ) -> dict[str, Any] | None:
        try:
            message = decode(line)
        except ProtocolError as exc:
            self._requests += 1
            return self._reject(None, "default", "invalid", str(exc))
        rid = message.get("id")
        tenant = str(message.get("tenant") or "default")
        op = message.get("op")
        self._requests += 1
        self._tenant(tenant)["requests"] += 1
        if op not in OPS:
            return self._reject(rid, tenant, "invalid", f"unknown op {op!r}")
        if op == "ping":
            return ok_response(rid, "pong")
        if op == "stats":
            return ok_response(rid, self.stats_block())
        if op == "shutdown":
            self.request_shutdown()
            return ok_response(rid, "draining")
        start = time.monotonic()
        try:
            if op in ("simulate", "simulate_batch", "predict"):
                result = await self._serve_points(message, rid, tenant, writer)
            else:  # experiment
                result = await self._serve_experiment(message, tenant)
        except ProtocolError as exc:
            return self._reject(rid, tenant, "invalid", str(exc))
        except _Reject as exc:
            return self._reject(rid, tenant, exc.code, exc.message)
        except ReproError as exc:
            return self._reject(rid, tenant, "internal", str(exc))
        self._completed += 1
        self._tenant(tenant)["completed"] += 1
        self._latencies_ms.append((time.monotonic() - start) * 1000.0)
        return ok_response(rid, result)

    def _reject(self, rid: Any, tenant: str, code: str, message: str) -> dict[str, Any]:
        self._rejected[code] = self._rejected.get(code, 0) + 1
        self._tenant(tenant)["rejected"] += 1
        return error_response(rid, code, message)

    async def _serve_points(
        self, message: Mapping[str, Any], rid: Any, tenant: str, writer: asyncio.StreamWriter
    ) -> list[dict[str, Any]]:
        op = message["op"]
        kind = "predict" if op == "predict" else "simulate"
        if op == "simulate":
            if "request" not in message:
                raise ProtocolError("simulate needs a 'request' object")
            points = [message["request"]]
        else:
            points = message.get("requests")
            if not isinstance(points, list) or not points:
                raise ProtocolError(f"{op} needs a non-empty 'requests' list")
        keyed: list[tuple[str, Any]] = []
        for data in points:
            point = self._admission_point(data)
            keyed.append((f"{kind}:{request_key(point.request)}", point))
        admitted = self._admit(kind, keyed, tenant)
        if isinstance(admitted, tuple):
            raise _Reject(*admitted)
        want_progress = bool(message.get("progress"))
        try:
            results: list[dict[str, Any]] = []
            for i, future in enumerate(admitted):
                results.append(await future)
                if want_progress and len(admitted) > 1:
                    writer.write(encode(progress_event(rid, i + 1, len(admitted))))
                    await writer.drain()
        finally:
            self._release_tenant(tenant, len(admitted))
        for i, point in enumerate(results):
            if "error" in point:
                raise ReproError(f"point {i} failed: {point['error']}")
        return results

    def _admission_point(self, data: Any) -> WirePoint:
        """One wire sweep point, parsed and keyed, memoized by its exact
        wire content: a point sent again is the same ``WirePoint``, with
        its identity already derived.  Malformed points raise
        :class:`ProtocolError` and are never stored."""
        content = json.dumps(data, separators=(",", ":"))
        memo = self._admission_memo
        point = memo.get(content)
        if point is not None:
            memo.move_to_end(content)
            return point
        try:
            point = WirePoint(data)
            request_key(point.request)  # derive (and cache) the identity now
        except ProtocolError:
            raise
        except ReproError as exc:
            raise ProtocolError(f"bad request: {exc}") from None
        memo[content] = point
        if len(memo) > _ADMISSION_MEMO_POINTS:
            memo.popitem(last=False)
        return point

    async def _serve_experiment(
        self, message: Mapping[str, Any], tenant: str
    ) -> dict[str, Any]:
        name = message.get("name")
        if not isinstance(name, str) or not name:
            raise ProtocolError("experiment needs a 'name'")
        config = message.get("config")
        if config is not None and not isinstance(config, Mapping):
            raise ProtocolError("experiment config must be an object")
        config = config or {}
        if "sim_cache_dir" in config:
            # The daemon owns its memo; a client cannot repoint it.
            raise ProtocolError("experiment config may not set sim_cache_dir")
        try:
            parsed = ExperimentConfig.from_json(config)
        except (ReproError, TypeError, ValueError) as exc:
            raise ProtocolError(f"bad experiment config: {exc}") from None
        key = "experiment:" + name + ":" + repr(sorted(config.items()))
        admitted = self._admit("experiment", [(key, (name, parsed))], tenant)
        if isinstance(admitted, tuple):
            raise _Reject(*admitted)
        try:
            result = await admitted[0]
        finally:
            self._release_tenant(tenant, 1)
        record = dict(result)
        self._experiment_results.append(ExperimentResult.from_json(record))
        return record


class _Reject(Exception):
    """Internal: carries an admission reject out of the handlers."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


# -- synchronous entry points --------------------------------------------------
async def _amain(server: Server, install_signals: bool = False) -> None:
    import signal

    address = await server.start()
    if install_signals:
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            with contextlib.suppress(NotImplementedError, ValueError):
                loop.add_signal_handler(sig, server.request_shutdown)
        print(f"repro service listening on {address}", flush=True)
    await server.wait_closed()


def run_server(config: ServeConfig | None = None) -> int:
    """Blocking daemon entry (what ``repro serve`` calls): serve until
    SIGTERM/SIGINT, drain gracefully, return 0."""
    server = Server(config)
    asyncio.run(_amain(server, install_signals=True))
    stats = server.stats_block()
    print(
        f"repro service drained: {stats['completed']} request(s) completed, "
        f"{stats['batches']} batch(es), {stats['dedup_hits']} dedup hit(s)",
        flush=True,
    )
    return 0


class BackgroundServer:
    """A daemon on a background thread with its own event loop — the
    in-process form used by :func:`repro.api.serve_session`, tests and
    benchmarks.  Context manager: entering yields the started server."""

    def __init__(self, config: ServeConfig | None = None):
        self.server = Server(config)
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._error: BaseException | None = None

    @property
    def address(self) -> str:
        assert self.server.address is not None, "server not started"
        return self.server.address

    def start(self) -> "BackgroundServer":
        async def main() -> None:
            try:
                await self.server.start()
            except BaseException as exc:  # noqa: BLE001 — surface bind errors to the caller
                self._error = exc
                self._started.set()
                raise
            self._started.set()
            await self.server.wait_closed()

        self._thread = threading.Thread(
            target=lambda: asyncio.run(main()), name="repro-serve", daemon=True
        )
        self._thread.start()
        self._started.wait(timeout=30)
        if self._error is not None:
            raise ReproError(f"service failed to start: {self._error}")
        if self.server.address is None:
            raise ReproError("service failed to start within 30s")
        return self

    def stop(self, timeout: float = 60.0) -> None:
        if self._thread is None:
            return
        self.server.request_shutdown_threadsafe()
        self._thread.join(timeout=timeout)
        self._thread = None

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


__all__ = [
    "BackgroundServer",
    "ServeConfig",
    "Server",
    "run_server",
]
