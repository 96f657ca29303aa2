"""Synchronization: reference frames, bootstrap, clock tracking."""

from .bootstrap import (
    BootstrapResult,
    DEFAULT_BOOTSTRAP_WINDOW_US,
    QUARANTINE_NO_REFERENCES,
    QUARANTINE_UNSTABLE_CLOCK,
    STABILITY_TOLERANCE_US,
    bootstrap_synchronization,
)
from .refs import ReferenceKey, content_key, parse_record_frame, reference_key
from .skew import ClockTrack, DEFAULT_SKEW_ALPHA

__all__ = [
    "BootstrapResult",
    "DEFAULT_BOOTSTRAP_WINDOW_US",
    "QUARANTINE_NO_REFERENCES",
    "QUARANTINE_UNSTABLE_CLOCK",
    "STABILITY_TOLERANCE_US",
    "bootstrap_synchronization",
    "ReferenceKey",
    "content_key",
    "parse_record_frame",
    "reference_key",
    "ClockTrack",
    "DEFAULT_SKEW_ALPHA",
]
