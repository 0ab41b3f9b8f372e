"""Set-sharded parallel hierarchy simulation.

Replacement state in one cache set never depends on accesses to another
set, so an access stream can be partitioned by set index and each part
simulated independently — the one axis of parallelism PR 2's per-experiment
process pool cannot reach: parallelism *inside* a single simulation.

The partition key is the line index at the coarsest line granularity of
the hierarchy: ``shard = (byte_addr >> log2(L_max)) % S`` where ``L_max``
is the largest line size of any level.  This is **exact** — every level's
per-set state lands wholly inside one shard — iff for every level *i*

    (S * L_max / L_i)  divides  N_i          (set count of level i)

because ``x mod N_i`` then determines ``(x div (L_max/L_i)) mod S``.  For
power-of-two set counts this is the familiar nesting condition (every
level's set bits contain the shard bits); it also covers the Exemplar's
non-power-of-two 40960-set cache (divisible by 2, 4, 8 ...).  A hierarchy
that fails the condition — including any fully-associative level, where
``N_i == 1`` — falls back to serial simulation and records the reason in
telemetry (:func:`record_shard_fallback`); it never silently changes
numbers.

Exactness extends to the full multi-level simulation, not just one level:

* a miss's victim line lives in the *same set* as the miss, so every
  event (miss fill or writeback) a level emits carries an address in the
  same shard as the access that caused it — each worker's event stream
  stays inside its shard end to end;
* downstream levels see, per set, exactly the serial event subsequence in
  the serial order (the condition above makes every downstream set's
  events come from a single shard too);
* ``flush`` enumerates sets in canonical ascending order, so a shard's
  flush stream is the serial flush stream restricted to its sets.

Merging per-shard counters with :meth:`CacheStats.merged` therefore
reproduces the serial counters **bit-identically** — the differential
test suite (``tests/test_sharded.py``) and the CI sharded-vs-serial
battery hold the subsystem to that bar.

Workers are raw ``os.fork`` children speaking over ``multiprocessing``
pipes, *not* ``multiprocessing.Process``: the experiment orchestrator's
workers are daemonic and daemonic processes may not start ``Process``
children, while plain forks compose fine — so ``--shards`` works under
``--jobs``.  Each child inherits the freshly-built cache stack
copy-on-write at fork (engines are forked before any streaming prefetch
thread starts), drains its pipe on a reader thread so the parent's sends
pipeline with child compute, and exits on EOF — killing the parent can
strand no workers.
"""

from __future__ import annotations

import contextvars
import os
import queue
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing import Pipe
from typing import Any, Dict, Iterator, Sequence, Tuple

import numpy as np

from ...errors import MachineError
from ...options import override_options
from ..cache import Cache
from ..hierarchy import DEFAULT_CHUNK, Hierarchy, HierarchyResult
from ..spec import MachineSpec
from . import telemetry

# -- planning ------------------------------------------------------------------


@dataclass(frozen=True)
class ShardPlan:
    """How one hierarchy will be partitioned.

    ``shards`` is the effective count (1 = serial fallback, with
    ``reason`` explaining why); ``key_shift`` is ``log2(L_max)``, the
    right-shift that turns a byte address into the partition key's line
    index.
    """

    requested: int
    shards: int
    key_shift: int
    reason: str | None = None


def plan_shards(caches: Sequence[Cache], requested: int) -> ShardPlan:
    """Decide whether ``requested`` shards are exact for this cache stack.

    Exactness per level: ``(requested * L_max / L_i) | N_i`` (see module
    docstring).  A level simulated by the stack-distance engine is fully
    associative regardless of its geometry, so it counts as one set.
    """
    if requested <= 1:
        return ShardPlan(requested, 1, 0, None)
    line_max = max(c.geometry.line_size for c in caches)
    key_shift = line_max.bit_length() - 1
    for c in caches:
        n_sets = 1 if c.engine == "stack" else c.geometry.n_sets
        stride = requested * (line_max // c.geometry.line_size)
        if n_sets % stride:
            return ShardPlan(
                requested,
                1,
                0,
                f"{requested} shards need {stride} | sets at {c.name} "
                f"({n_sets} sets of {c.geometry.line_size}B lines, "
                f"hierarchy max line {line_max}B)",
            )
    return ShardPlan(requested, requested, key_shift, None)


def build_hierarchy(
    spec: MachineSpec,
    engine: str | None = None,
    chunk_size: int = DEFAULT_CHUNK,
    shards: int | None = None,
) -> Hierarchy:
    """The executor's hierarchy factory: serial or sharded by plan.

    ``engine``/``shards`` left ``None`` come from the active options
    (:func:`repro.options.current_options`); an infeasible request falls
    back to serial and records the reason.
    """
    options = override_options(engine=engine, shards=shards)
    caches = spec.build_caches(options.engine)
    requested = options.shards
    if requested == 1:
        return Hierarchy(caches, chunk_size)
    plan = plan_shards(caches, requested)
    if plan.shards <= 1:
        record_shard_fallback(requested, plan.reason or "infeasible")
        return Hierarchy(caches, chunk_size)
    return ShardedHierarchy(caches, chunk_size, plan)


# -- worker child --------------------------------------------------------------

#: Commands a shard worker understands; ``result`` is the only one that
#: replies, which makes it the parent's synchronization point.
_EXIT = ("exit",)


def _serve(conn, caches: list, chunk_size: int, shard: int) -> None:
    """Child-process body: simulate this shard's subsequence on demand.

    A reader thread drains the pipe into a bounded queue so the parent's
    ``send`` of the next chunk slice completes while this shard is still
    simulating the previous one (the kernel pipe buffer alone is far
    smaller than a chunk).  EOF anywhere means the parent is gone: quit.
    """
    inbox: queue.Queue = queue.Queue(maxsize=4)

    def _drain() -> None:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                msg = _EXIT
            inbox.put(msg)
            if msg[0] == "exit":
                return

    threading.Thread(target=_drain, daemon=True).start()

    hierarchy = Hierarchy(caches, chunk_size)
    busy = 0.0
    accesses = 0
    with telemetry.collect_sim_telemetry() as sim_acc:
        while True:
            msg = inbox.get()
            op = msg[0]
            try:
                if op == "run":
                    start = time.perf_counter()
                    hierarchy.run_trace(msg[1], msg[2])
                    busy += time.perf_counter() - start
                    accesses += len(msg[1])
                elif op == "flush":
                    start = time.perf_counter()
                    hierarchy.flush()
                    busy += time.perf_counter() - start
                elif op == "reset":
                    hierarchy.reset()
                elif op == "reset_stats":
                    hierarchy.reset_stats()
                elif op == "result":
                    conn.send(
                        ("result", hierarchy.result(), dict(sim_acc), accesses, busy)
                    )
                elif op == "exit":
                    return
                else:  # pragma: no cover — protocol bug
                    raise MachineError(f"unknown shard command {op!r}")
            except BaseException as exc:  # noqa: BLE001 — report, then die
                try:
                    conn.send(("error", f"{type(exc).__name__}: {exc}"))
                except (OSError, ValueError):
                    pass
                return


@dataclass
class _ShardWorker:
    conn: Any
    pid: int
    shard: int


# -- parent side ---------------------------------------------------------------


class ShardedHierarchy(Hierarchy):
    """A hierarchy whose access stream is set-partitioned across forked
    workers; drop-in for :class:`Hierarchy` with bit-identical results.

    The parent's own cache stack is only the fork template (each child
    inherits a fresh copy-on-write state); all simulation happens in the
    children and :meth:`result` merges their counters.  Call
    :meth:`close` (the executor does, in a ``finally``) to reap the
    workers; an unexpected worker death surfaces as :class:`MachineError`
    so the orchestrator's retry path can take over.
    """

    def __init__(self, caches: list[Cache], chunk_size: int, plan: ShardPlan):
        super().__init__(caches, chunk_size)
        if plan.shards < 2:
            raise MachineError("ShardedHierarchy needs a plan with >= 2 shards")
        self.plan = plan
        self._key_shift = plan.key_shift
        n = plan.shards
        self._mask = n - 1 if n & (n - 1) == 0 else None
        # All pipes before any fork: each child closes every end but its
        # own, so no sibling holds a stray write end keeping a dead
        # parent's pipe readable (EOF must propagate for orphan cleanup).
        pipes = [Pipe(duplex=True) for _ in range(n)]
        self._workers: list[_ShardWorker] = []
        self._sim_seen: list[dict] = [{} for _ in range(n)]
        self._run_seen: list[list[float]] = [[0, 0.0] for _ in range(n)]
        for shard in range(n):
            pid = os.fork()
            if pid == 0:  # child
                status = 1
                try:
                    for i, (parent_end, child_end) in enumerate(pipes):
                        parent_end.close()
                        if i != shard:
                            child_end.close()
                    _serve(pipes[shard][1], caches, chunk_size, shard)
                    status = 0
                finally:
                    os._exit(status)
            self._workers.append(_ShardWorker(pipes[shard][0], pid, shard))
        for _, child_end in pipes:
            child_end.close()

    # -- plumbing -----------------------------------------------------------

    def _death_notice(self, worker: _ShardWorker, exc: BaseException) -> str:
        detail = f"{type(exc).__name__}: {exc}"
        try:  # a dying child sends its traceback before the pipe breaks
            if worker.conn.poll(0.2):
                kind, body = worker.conn.recv()
                if kind == "error":
                    detail = str(body)
        except (EOFError, OSError):
            pass
        return f"shard worker {worker.shard} (pid {worker.pid}) died: {detail}"

    def _send(self, worker: _ShardWorker, msg: tuple) -> None:
        try:
            worker.conn.send(msg)
        except (OSError, ValueError) as exc:
            raise MachineError(self._death_notice(worker, exc)) from exc

    def _recv(self, worker: _ShardWorker) -> tuple:
        try:
            msg = worker.conn.recv()
        except (EOFError, OSError) as exc:
            raise MachineError(self._death_notice(worker, exc)) from exc
        if msg[0] == "error":
            raise MachineError(
                f"shard worker {worker.shard} (pid {worker.pid}) failed: {msg[1]}"
            )
        return msg

    def _require_workers(self) -> None:
        if not self._workers:
            raise MachineError("sharded hierarchy is closed")

    # -- Hierarchy interface ------------------------------------------------

    def _run_levels(self, addrs: np.ndarray, writes: np.ndarray) -> None:
        self._require_workers()
        key = addrs >> self._key_shift
        if self._mask is not None:
            key = key & self._mask
        else:
            key = key % self.plan.shards
        for worker in self._workers:
            idx = np.flatnonzero(key == worker.shard)
            if idx.size == 0:
                continue
            self._send(worker, ("run", addrs[idx], writes[idx]))

    def flush(self) -> None:
        self._require_workers()
        for worker in self._workers:
            self._send(worker, ("flush",))

    def reset(self) -> None:
        self._require_workers()
        for worker in self._workers:
            self._send(worker, ("reset",))

    def reset_stats(self) -> None:
        self._require_workers()
        for worker in self._workers:
            self._send(worker, ("reset_stats",))

    def shard_results(self) -> list[tuple[int, HierarchyResult, dict, int, float]]:
        """Synchronize and snapshot every worker: ``(shard, result,
        sim-telemetry accumulator, accesses, busy seconds)`` per shard.
        The differential/mutation tests merge these by hand; production
        callers use :meth:`result`."""
        self._require_workers()
        for worker in self._workers:
            self._send(worker, ("result",))
        out = []
        for worker in self._workers:
            _, res, sim_acc, accesses, busy = self._recv(worker)
            out.append((worker.shard, res, sim_acc, accesses, busy))
        return out

    def result(self) -> HierarchyResult:
        snapshots = self.shard_results()
        merged: HierarchyResult | None = None
        workers_tel = []
        for shard, res, sim_acc, accesses, busy in snapshots:
            merged = res if merged is None else merged.merged(res)
            # Replay each child's per-level telemetry into the parent's
            # collectors, delta-encoded so repeated result() calls don't
            # double-count.
            seen = self._sim_seen[shard]
            for pair, (n, s) in sim_acc.items():
                prev = seen.get(pair, (0, 0.0))
                if n - prev[0] or s - prev[1]:
                    telemetry.record_level(*pair, int(n - prev[0]), s - prev[1])
                seen[pair] = (n, s)
            run_prev = self._run_seen[shard]
            workers_tel.append(
                {
                    "shard": shard,
                    "accesses": int(accesses - run_prev[0]),
                    "busy_s": busy - run_prev[1],
                }
            )
            self._run_seen[shard] = [accesses, busy]
        record_shard_run(self.plan.requested, self.plan.shards, workers_tel)
        assert merged is not None
        return merged

    def close(self) -> None:
        """Tell every worker to exit and reap it (SIGKILL after a grace
        period if one is wedged).  Idempotent; called by the executor in a
        ``finally`` and by ``__del__`` as a safety net."""
        workers, self._workers = self._workers, []
        for worker in workers:
            try:
                worker.conn.send(_EXIT)
            except (OSError, ValueError):
                pass
            try:
                worker.conn.close()
            except OSError:
                pass
        deadline = time.monotonic() + 10.0
        for worker in workers:
            while True:
                try:
                    pid, _ = os.waitpid(worker.pid, os.WNOHANG)
                except ChildProcessError:
                    break
                if pid:
                    break
                if time.monotonic() > deadline:
                    try:
                        os.kill(worker.pid, signal.SIGKILL)
                        os.waitpid(worker.pid, 0)
                    except (ProcessLookupError, ChildProcessError):
                        pass
                    break
                time.sleep(0.005)

    def __del__(self) -> None:  # pragma: no cover — GC timing dependent
        try:
            self.close()
        except Exception:
            pass


# -- telemetry -----------------------------------------------------------------

#: Accumulated keys: requested, effective, runs, fallback_runs,
#: fallback_reason, workers {shard: [accesses, busy_s]}.
Accumulator = Dict[str, Any]

_collectors: contextvars.ContextVar[Tuple[Accumulator, ...]] = (
    contextvars.ContextVar("repro_shard_telemetry", default=())
)


def collecting() -> bool:
    """True when some enclosing context wants shard telemetry."""
    return bool(_collectors.get())


def record_shard_run(requested: int, effective: int, workers: list[dict]) -> None:
    """Attribute one sharded simulation (per-worker access counts and
    busy wall-clock) to every active collector."""
    for acc in _collectors.get():
        acc["runs"] = acc.get("runs", 0) + 1
        acc["requested"] = max(acc.get("requested", 0), requested)
        acc["effective"] = max(acc.get("effective", 0), effective)
        per = acc.setdefault("workers", {})
        for w in workers:
            cell = per.setdefault(w["shard"], [0, 0.0])
            cell[0] += w["accesses"]
            cell[1] += w["busy_s"]


def record_shard_fallback(requested: int, reason: str) -> None:
    """Attribute one serial fallback (an infeasible shard request)."""
    for acc in _collectors.get():
        acc["fallback_runs"] = acc.get("fallback_runs", 0) + 1
        acc["requested"] = max(acc.get("requested", 0), requested)
        acc["fallback_reason"] = reason


@contextmanager
def collect_shard_telemetry() -> Iterator[Accumulator]:
    """Collect sharding telemetry for the duration of the block."""
    acc: Accumulator = {}
    token = _collectors.set(_collectors.get() + (acc,))
    try:
        yield acc
    finally:
        _collectors.reset(token)


def summarize_shards(acc: Accumulator) -> Dict[str, Any]:
    """Accumulator -> manifest-ready ``shards`` record ({} when sharding
    never engaged)."""
    if not acc.get("runs") and not acc.get("fallback_runs"):
        return {}
    out: Dict[str, Any] = {
        "requested": int(acc.get("requested", 0)),
        "effective": int(acc.get("effective", 1)) if acc.get("runs") else 1,
        "runs": int(acc.get("runs", 0)),
    }
    if acc.get("fallback_runs"):
        out["fallback_runs"] = int(acc["fallback_runs"])
        out["fallback_reason"] = str(acc.get("fallback_reason", ""))
    per = acc.get("workers") or {}
    if per:
        rows = [
            {"shard": int(s), "accesses": int(c[0]), "busy_s": float(c[1])}
            for s, c in sorted(per.items())
        ]
        out["workers"] = rows
        busy = [r["busy_s"] for r in rows]
        mean = sum(busy) / len(busy)
        # max/mean busy: 1.0 = perfectly balanced shards.
        out["imbalance"] = round(max(busy) / mean, 4) if mean > 0 else None
    return out


__all__ = [
    "ShardPlan",
    "ShardedHierarchy",
    "build_hierarchy",
    "collect_shard_telemetry",
    "collecting",
    "plan_shards",
    "record_shard_fallback",
    "record_shard_run",
    "summarize_shards",
]
