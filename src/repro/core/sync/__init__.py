"""Synchronization: reference frames, bootstrap, clock tracking."""

from .bootstrap import (
    BootstrapResult,
    DEFAULT_BOOTSTRAP_WINDOW_US,
    DEFAULT_STABILITY_TOLERANCE_US,
    QUARANTINE_NO_REFERENCES,
    QUARANTINE_UNSTABLE_CLOCK,
    SyncPartitionError,
    bootstrap_synchronization,
    resolve_island_mode,
)
from .refs import ReferenceKey, content_key, parse_record_frame, reference_key
from .skew import ClockTrack, DEFAULT_SKEW_ALPHA

__all__ = [
    "BootstrapResult",
    "DEFAULT_BOOTSTRAP_WINDOW_US",
    "DEFAULT_STABILITY_TOLERANCE_US",
    "QUARANTINE_NO_REFERENCES",
    "QUARANTINE_UNSTABLE_CLOCK",
    "SyncPartitionError",
    "bootstrap_synchronization",
    "resolve_island_mode",
    "ReferenceKey",
    "content_key",
    "parse_record_frame",
    "reference_key",
    "ClockTrack",
    "DEFAULT_SKEW_ALPHA",
]
