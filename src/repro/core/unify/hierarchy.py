"""Benchmark shim for the deleted pool merge coordinator (PR 16).

``benchmarks/e2e`` imports ``MergeTree`` from this path and may not
change in the PR that deleted the process pool; a later
``benchmark``-archetype PR drops its three call sites and then this
module.  Everything else uses :class:`~repro.core.unify.unifier.Unifier`.
"""

from __future__ import annotations

from typing import Optional

from .unifier import Unifier


def MergeTree(max_workers: Optional[int] = None) -> Unifier:
    """A plain :class:`Unifier`: the in-process merge is the only merge.

    ``None``, ``0`` and ``1`` always could run in-process; a pool size
    can no longer be honoured and is rejected rather than ignored.
    """
    if max_workers not in (None, 0, 1):
        raise ValueError(
            f"max_workers={max_workers!r}: the process pool was deleted in "
            f"PR 16; the merge runs in-process (use Unifier())"
        )
    return Unifier()
