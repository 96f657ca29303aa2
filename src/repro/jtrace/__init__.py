"""Trace format substrate (the jigdump analogue)."""

from .io import (
    DecodeHealth,
    ErrorPolicy,
    RadioTrace,
    open_trace_stream,
    open_trace_streams,
    read_trace,
    read_traces,
    write_trace,
    write_traces,
)
from .records import RecordKind, TraceRecord, record_from_bytes, record_to_bytes

__all__ = [
    "DecodeHealth",
    "ErrorPolicy",
    "RadioTrace",
    "open_trace_stream",
    "open_trace_streams",
    "read_trace",
    "read_traces",
    "write_trace",
    "write_traces",
    "RecordKind",
    "TraceRecord",
    "record_from_bytes",
    "record_to_bytes",
]
