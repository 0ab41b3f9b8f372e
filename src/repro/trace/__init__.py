"""Trace engine: IR programs -> exact ordered memory-access streams."""

from .events import EMPTY_TRACE, Trace, concat_traces
from .generator import DEFAULT_CHUNK_ACCESSES, TraceGenerator, generate_trace
from .io import load_trace, save_trace
from .stats import (
    TraceStats,
    per_array_accesses,
    stride_histogram,
    trace_stats,
)
from .stream import prefetch_chunks
from .telemetry import collect_trace_telemetry, peak_rss_bytes

__all__ = [
    "DEFAULT_CHUNK_ACCESSES",
    "EMPTY_TRACE",
    "Trace",
    "TraceGenerator",
    "TraceStats",
    "collect_trace_telemetry",
    "concat_traces",
    "generate_trace",
    "load_trace",
    "peak_rss_bytes",
    "per_array_accesses",
    "prefetch_chunks",
    "save_trace",
    "stride_histogram",
    "trace_stats",
]
