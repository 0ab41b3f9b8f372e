"""Synchronous thin client for the repro service.

The client ships sweep points in portable form and rebuilds full
:class:`~repro.interp.executor.MachineRun` objects from the counters the
server returns, through the same
:func:`~repro.interp.executor.assemble_run` arithmetic local execution
uses — so ``ServiceClient.simulate_batch(reqs)`` is bit-identical to
``repro.api.simulate_batch(reqs)``::

    from repro.service import ServiceClient

    with ServiceClient("tcp:127.0.0.1:9178") as client:
        results = client.simulate_batch(requests, progress=print)
        print(client.stats()["dedup_hits"])

Addresses are the strings the server prints: ``unix:<path>``,
``tcp:<host>:<port>`` (a bare path or ``host:port`` also works).
"""

from __future__ import annotations

import itertools
import socket
from typing import Any, Callable, Mapping, Sequence

from ..errors import ReproError
from ..experiments.plan import SimRequest
from ..experiments.result import ExperimentResult
from ..interp.executor import MachineRun, assemble_run
from ..lang.program import Program
from ..machine.engine.simcache import SimulationResult as _Counters
from ..machine.spec import MachineSpec
from .protocol import MAX_LINE_BYTES, decode, encode, sim_request_to_json


class ServiceError(ReproError):
    """The server answered with an explicit reject."""

    def __init__(self, code: str, message: str):
        super().__init__(f"[{code}] {message}")
        self.code = code


class ServiceConnectionClosed(ReproError, ConnectionError):
    """The server closed the connection before replying (drained or died)."""


def _parse_address(address: str) -> tuple[str, Any]:
    if address.startswith("unix:"):
        return ("unix", address[5:])
    if address.startswith("tcp:"):
        address = address[4:]
    if "/" in address or address.startswith("."):
        return ("unix", address)
    host, _, port = address.rpartition(":")
    if not host or not port.isdigit():
        raise ReproError(f"bad service address {address!r}")
    return ("tcp", (host, int(port)))


def _rebuild(request: SimRequest, point: Mapping[str, Any]) -> MachineRun:
    """Wire counters -> MachineRun, bit-identical to local execution.

    The server assembled its counters with the request's ``passes``
    already multiplied in, so the client reassembles with ``passes=1``:
    identical integers through identical timing arithmetic.
    """
    counters = _Counters.from_json(point)
    bound = request.program.bind_params(request.params)
    return assemble_run(
        request.program.name,
        request.machine,
        bound,
        counters.result,
        counters.flops,
        counters.loads,
        counters.stores,
        1,
    )


class ServiceClient:
    """One connection to a repro daemon (context manager)."""

    def __init__(self, address: str, *, tenant: str | None = None, timeout: float = 300.0):
        self.address = address
        self.tenant = tenant
        family, target = _parse_address(address)
        if family == "unix":
            self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._sock.settimeout(timeout)
            self._sock.connect(target)
        else:
            self._sock = socket.create_connection(target, timeout=timeout)
        self._file = self._sock.makefile("rwb")
        self._ids = itertools.count(1)

    # -- plumbing -------------------------------------------------------------
    def _call(
        self,
        message: dict[str, Any],
        on_progress: Callable[[int, int], None] | None = None,
    ) -> Any:
        rid = next(self._ids)
        message["id"] = rid
        if self.tenant is not None:
            message.setdefault("tenant", self.tenant)
        self._file.write(encode(message))
        self._file.flush()
        while True:
            line = self._file.readline(MAX_LINE_BYTES)
            if not line:
                raise ServiceConnectionClosed("service closed the connection mid-request")
            reply = decode(line)
            if reply.get("event") == "progress":
                if on_progress is not None and reply.get("id") == rid:
                    on_progress(int(reply["done"]), int(reply["total"]))
                continue
            if reply.get("id") != rid:
                raise ReproError(f"out-of-order reply: expected id {rid}, got {reply.get('id')}")
            if not reply.get("ok"):
                error = reply.get("error") or {}
                raise ServiceError(
                    str(error.get("code", "internal")),
                    str(error.get("message", "unknown error")),
                )
            return reply.get("result")

    # -- verbs ----------------------------------------------------------------
    def simulate_batch(
        self,
        requests: Sequence[SimRequest],
        *,
        progress: Callable[[int, int], None] | None = None,
    ) -> list["_ApiResult"]:
        """Run a sweep through the daemon; results in request order,
        bit-identical to :func:`repro.api.simulate_batch`."""
        requests = list(requests)
        points = self._call(
            {
                "op": "simulate_batch",
                "requests": [sim_request_to_json(r) for r in requests],
                "progress": progress is not None,
            },
            on_progress=progress,
        )
        return [self._summarize(r, _rebuild(r, p)) for r, p in zip(requests, points)]

    def simulate(
        self,
        program: Program,
        machine: MachineSpec,
        *,
        params: Mapping[str, int] | None = None,
        passes: int = 1,
        warmup_passes: int = 0,
    ) -> "_ApiResult":
        request = SimRequest(
            program=program,
            machine=machine,
            params=params,
            passes=passes,
            warmup_passes=warmup_passes,
        )
        point = self._call({"op": "simulate", "request": sim_request_to_json(request)})
        return self._summarize(request, _rebuild(request, point[0]))

    def predict_batch(self, requests: Sequence[SimRequest]) -> list["_ApiResult"]:
        """Analytic estimates from the daemon (no trace, no simulation)."""
        requests = list(requests)
        points = self._call(
            {"op": "predict", "requests": [sim_request_to_json(r) for r in requests]}
        )
        return [self._summarize(r, _rebuild(r, p)) for r, p in zip(requests, points)]

    def run_experiment(self, name: str, config: Mapping[str, Any] | None = None) -> ExperimentResult:
        record = self._call(
            {"op": "experiment", "name": name, "config": dict(config) if config else None}
        )
        return ExperimentResult.from_json(record)

    def stats(self) -> dict[str, Any]:
        return self._call({"op": "stats"})

    def ping(self) -> bool:
        return self._call({"op": "ping"}) == "pong"

    def shutdown(self) -> None:
        """Ask the daemon to drain and exit (returns once acknowledged)."""
        self._call({"op": "shutdown"})

    @staticmethod
    def _summarize(request: SimRequest, run: MachineRun) -> "_ApiResult":
        from ..api import _summarize

        return _summarize(run, request.machine)

    # -- lifecycle ------------------------------------------------------------
    def close(self) -> None:
        for closer in (self._file.close, self._sock.close):
            try:
                closer()
            except OSError:
                pass

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def submit(
    requests: Sequence[SimRequest],
    address: str,
    *,
    tenant: str | None = None,
    progress: Callable[[int, int], None] | None = None,
) -> list["_ApiResult"]:
    """One-shot convenience: connect, run the sweep, disconnect."""
    with ServiceClient(address, tenant=tenant) as client:
        return client.simulate_batch(requests, progress=progress)


# typing alias only (the real class lives in repro.api; importing it at
# module scope would be circular when api itself imports the service).
_ApiResult = Any

__all__ = ["ServiceClient", "ServiceConnectionClosed", "ServiceError", "submit"]
