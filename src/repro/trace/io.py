"""Trace serialization.

Traces of large programs are the expensive artifact of this library —
matrix multiply's O(N³) stream dominates every experiment. Saving them as
compressed ``.npz`` files lets analyses (3C classification, OPT replay,
intrinsic floors, alternative machines) rerun without regenerating:
:func:`save_trace` writes one archive and :func:`load_trace` reads it
back; both sides hold the full trace in memory.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..errors import ReproError
from .events import Trace

FORMAT_VERSION = 1


def save_trace(trace: Trace, path: str | Path) -> None:
    """Write a trace as a compressed npz archive."""
    np.savez_compressed(
        Path(path),
        version=np.int64(FORMAT_VERSION),
        addresses=trace.addresses,
        is_write=trace.is_write,
        counts=np.array([trace.flops, trace.loads, trace.stores], dtype=np.int64),
    )


def load_trace(path: str | Path) -> Trace:
    """Read a trace written by :func:`save_trace`."""
    path = Path(path)
    try:
        with np.load(path) as data:
            version = int(data["version"])
            if version != FORMAT_VERSION:
                raise ReproError(
                    f"{path}: trace format v{version}, expected v{FORMAT_VERSION}"
                )
            flops, loads, stores = (int(x) for x in data["counts"])
            return Trace(
                data["addresses"].astype(np.int64),
                data["is_write"].astype(np.bool_),
                flops,
                loads,
                stores,
            )
    except (OSError, KeyError, ValueError) as exc:
        raise ReproError(f"cannot load trace from {path}: {exc}") from exc

