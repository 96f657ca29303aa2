"""Unification: merging all traces into a single jframe timeline."""

from .jframe import Instance, JFrame, JFrameKind
from .unifier import (
    DEFAULT_RESYNC_THRESHOLD_US,
    DEFAULT_SEARCH_WINDOW_US,
    UnificationResult,
    Unifier,
    UnifyStats,
    UnifyStream,
    partition_traces,
)

__all__ = [
    "Instance",
    "JFrame",
    "JFrameKind",
    "DEFAULT_RESYNC_THRESHOLD_US",
    "DEFAULT_SEARCH_WINDOW_US",
    "UnificationResult",
    "Unifier",
    "UnifyStats",
    "UnifyStream",
    "partition_traces",
]
