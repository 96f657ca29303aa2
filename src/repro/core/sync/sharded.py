"""Benchmark shim for the deleted sharded bootstrap coordinator (PR 16).

``benchmarks/e2e`` imports ``ShardedBootstrap`` from this path and may
not change in the PR that deleted the process pool; a later
``benchmark``-archetype PR drops its call site and then this module.
Everything else calls
:func:`~repro.core.sync.bootstrap.bootstrap_synchronization`.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from ...jtrace.io import RadioTrace
from .bootstrap import BootstrapResult, bootstrap_synchronization


class ShardedBootstrap:
    """Stateless: :meth:`bootstrap` is ``bootstrap_synchronization``."""

    def __init__(self, max_workers: Optional[int] = None) -> None:
        # ``None``, ``0`` and ``1`` always could run in-process; a pool
        # size can no longer be honoured and is rejected, not ignored.
        if max_workers not in (None, 0, 1):
            raise ValueError(
                f"max_workers={max_workers!r}: the process pool was deleted "
                f"in PR 16; call bootstrap_synchronization()"
            )

    def bootstrap(
        self,
        traces: Sequence[RadioTrace],
        clock_groups: Iterable[Sequence[int]] = (),
        strict: bool = False,
    ) -> BootstrapResult:
        return bootstrap_synchronization(
            traces, clock_groups=clock_groups, strict=strict
        )
