"""Wire format of the repro service: JSON lines, one message per line.

Requests
--------

Every request is one JSON object terminated by ``\\n``::

    {"op": "simulate_batch", "id": 1, "requests": [<sim_request>, ...],
     "tenant": "ci", "progress": true}
    {"op": "predict",        "id": 2, "requests": [<sim_request>, ...]}
    {"op": "experiment",     "id": 3, "name": "fig1", "config": {...}}
    {"op": "stats",          "id": 4}
    {"op": "ping",           "id": 5}
    {"op": "shutdown",       "id": 6}

A ``stats`` reply is the manifest's ``service`` telemetry block plus
``"draining"``: whether the server has begun its drain.

``<sim_request>`` carries everything
:class:`~repro.experiments.plan.SimRequest` holds, in portable form: the
program as mini-language text (:func:`repro.lang.printer.render`), the
machine as :meth:`MachineSpec.to_json`, and the schedule scalars.

Responses
---------

The final response for request ``id`` is::

    {"id": 1, "ok": true,  "result": ...}
    {"id": 1, "ok": false, "error": {"code": "queue_full", "message": "..."}}

Reject codes are closed: ``invalid`` (malformed request), ``queue_full``
(admission control), ``over_quota`` (per-tenant cap), ``draining``
(server is shutting down), ``internal`` (execution failed).  A sweep
submitted with ``"progress": true`` additionally receives incremental
events before the final response::

    {"id": 1, "event": "progress", "done": 3, "total": 36}

Simulation results on the wire are the raw counters
(:meth:`repro.machine.engine.simcache.SimulationResult.to_json`): the
client reassembles the full :class:`~repro.interp.executor.MachineRun`
locally through :func:`~repro.interp.executor.assemble_run`, which is
what makes served results bit-identical to local execution.
"""

from __future__ import annotations

import json
from typing import Any, Mapping

from ..errors import ReproError
from ..experiments.plan import SimRequest
from ..lang.parser import parse
from ..machine.layout import LayoutPolicy
from ..machine.spec import MachineSpec

#: Bump when the wire format changes incompatibly.
PROTOCOL_VERSION = 1

#: Closed set of reject codes (mirrored in the manifest service block).
REJECT_CODES = ("invalid", "queue_full", "over_quota", "draining", "internal")

#: Ops the server understands.
OPS = ("simulate", "simulate_batch", "predict", "experiment", "stats", "ping", "shutdown")

#: Hard cap on one wire line (guards the server against garbage input).
MAX_LINE_BYTES = 8 * 1024 * 1024


class ProtocolError(ReproError):
    """A message violates the wire contract (malformed, wrong types)."""


def encode(message: Mapping[str, Any]) -> bytes:
    """One message -> one ``\\n``-terminated JSON line."""
    return json.dumps(message, separators=(",", ":")).encode() + b"\n"


def decode(line: bytes | str) -> dict[str, Any]:
    """One wire line -> message dict (raises :class:`ProtocolError`)."""
    try:
        message = json.loads(line)
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"not valid JSON: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError(f"message must be a JSON object, got {type(message).__name__}")
    return message


# -- SimRequest <-> wire ------------------------------------------------------
def sim_request_to_json(request: SimRequest) -> dict[str, Any]:
    """Portable form of one sweep point."""
    return {
        "program": request.text,
        "machine": request.machine.to_json(),
        "params": dict(request.params) if request.params else None,
        "layout": (
            request.layout_policy.to_json() if request.layout_policy is not None else None
        ),
        "passes": request.passes,
        "warmup_passes": request.warmup_passes,
        "flush": request.flush,
    }


def sim_request_from_json(data: Mapping[str, Any]) -> SimRequest:
    """Parse and validate one wire sweep point.

    Raises :class:`ProtocolError` for anything malformed — the server
    turns that into an ``invalid`` reject instead of crashing the
    connection.
    """
    if not isinstance(data, Mapping):
        raise ProtocolError(f"request must be an object, got {type(data).__name__}")
    try:
        program = parse(data["program"])
    except KeyError:
        raise ProtocolError("request is missing 'program'") from None
    except (TypeError, ReproError) as exc:
        raise ProtocolError(f"bad program: {exc}") from None
    try:
        machine = MachineSpec.from_json(data["machine"])
    except KeyError:
        raise ProtocolError("request is missing 'machine'") from None
    except (TypeError, ValueError, ReproError) as exc:
        raise ProtocolError(f"bad machine: {exc}") from None
    params = data.get("params")
    if params is not None:
        if not isinstance(params, Mapping):
            raise ProtocolError("params must be an object of int")
        try:
            params = {str(k): int(v) for k, v in params.items()}
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"bad params: {exc}") from None
    layout = data.get("layout")
    if layout is not None:
        try:
            layout = LayoutPolicy.from_json(layout)
        except (TypeError, ValueError, AttributeError) as exc:
            raise ProtocolError(f"bad layout: {exc}") from None
    try:
        passes = int(data.get("passes", 1))
        warmup = int(data.get("warmup_passes", 0))
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"bad schedule: {exc}") from None
    if passes < 1 or warmup < 0:
        raise ProtocolError(f"bad schedule: passes={passes}, warmup_passes={warmup}")
    return SimRequest(
        program=program,
        machine=machine,
        params=params,
        layout_policy=layout,
        passes=passes,
        warmup_passes=warmup,
        flush=bool(data.get("flush", True)),
    )


class WirePoint(dict):
    """One wire sweep point as sent, plus its parse in ``.request``.  It
    stays the wire dict, so a batch serializes as the JSON its clients
    sent (the traced benchmark fingerprints batches so), and it pickles
    with its request — and the request's cached identity — across the
    ``jobs > 0`` fork pool.  The server memoizes it by wire content, so
    one ``WirePoint`` may answer many requests."""

    def __init__(self, data: Mapping[str, Any]):
        self.request = sim_request_from_json(data)
        super().__init__(data)


# -- responses ----------------------------------------------------------------
def ok_response(rid: Any, result: Any) -> dict[str, Any]:
    return {"id": rid, "ok": True, "result": result}


def error_response(rid: Any, code: str, message: str) -> dict[str, Any]:
    assert code in REJECT_CODES, code
    return {"id": rid, "ok": False, "error": {"code": code, "message": message}}


def progress_event(rid: Any, done: int, total: int) -> dict[str, Any]:
    return {"id": rid, "event": "progress", "done": done, "total": total}


__all__ = [
    "MAX_LINE_BYTES",
    "OPS",
    "PROTOCOL_VERSION",
    "REJECT_CODES",
    "ProtocolError",
    "WirePoint",
    "decode",
    "encode",
    "error_response",
    "ok_response",
    "progress_event",
    "sim_request_from_json",
    "sim_request_to_json",
]
