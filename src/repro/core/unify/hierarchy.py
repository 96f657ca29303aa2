"""The pool-capable merge coordinator.

:class:`~repro.core.unify.unifier.Unifier` merges every shard of
:func:`~repro.core.unify.unifier.partition_traces` in-process and is the
serial reference.  :class:`MergeTree` merges the *same* shards — one per
channel component, or one per (building, channel) on campus inputs
stamped with ``building_id``, so the shard count scales with the fleet
rather than with the channel plan — and may run the per-shard engines on
a process pool, with the fault recovery it shares with the sharded
bootstrap (:func:`~repro.core.faults.map_shards_with_recovery`).

Serial and pool differ only in where the shard engines run: both reduce
the per-shard jframe streams with one stable k-way merge
(:func:`~repro.core.unify.unifier.merge_shard_streams`) in the global
shard order, so the output is jframe-for-jframe the ``Unifier``'s
(``tests/test_hierarchy_parity.py`` holds this across execution mode,
stamped and legacy input, worker death and capture damage).

The name ``MergeTree`` (and this module path) is what ``benchmarks/e2e``
imports, so it stays although the reduce is one flat merge: a stable
merge is associative over contiguous stream ranges, so any tree of
merges that keeps the shard order would emit the same sequence.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ...jtrace.io import RadioTrace
from ..faults import RetryPolicy, ShardHealth, map_shards_with_recovery
from ..sync.bootstrap import BootstrapResult
from ..sync.sharded import resolve_pool_workers
from ..sync.skew import ClockTrack
from .jframe import JFrame
from .unifier import (
    UnificationResult,
    Unifier,
    UnifyStats,
    UnifyStream,
    _MergeEngine,
    merge_shard_streams,
    partition_traces,
    stream_shards,
)

#: Result of unifying one shard in a worker process.
_ShardResult = Tuple[List[JFrame], Dict[int, ClockTrack], UnifyStats]


def _unify_shard(
    unifier: Unifier,
    traces: Sequence[RadioTrace],
    bootstrap: BootstrapResult,
) -> _ShardResult:
    """Worker entry point: merge one shard to completion (picklable I/O)."""
    engine = _MergeEngine(unifier, traces, bootstrap)
    return engine.advance(), engine.tracks, engine.stats


def _drain_shard(jframes: List[JFrame]) -> Iterator[JFrame]:
    """Yield a shard's jframes, releasing each list slot as it is merged.

    Pool mode receives whole shard lists back from the workers; feeding
    the k-way merge through this generator means consumers that do not
    retain jframes (``materialize=False`` pipeline runs with streaming
    passes) only ever hold the unconsumed suffix.
    """
    for index in range(len(jframes)):
        jframe = jframes[index]
        jframes[index] = None
        yield jframe


class MergeTree:
    """Front-end over :class:`Unifier` that can merge shards on a pool.

    ``max_workers`` selects the execution mode:

    * ``None`` (default) — auto: a process pool when the machine has more
      than one CPU *and* there is more than one shard, else serial;
    * ``0`` or ``1`` — always serial, in-process;
    * ``n > 1`` — a process pool of at most ``n`` workers.

    Serial mode streams shards lazily (constant memory beyond the open
    window); pool mode materializes per-shard jframe lists in the workers
    and k-way merges them on receipt.  Worker death and missed deadlines
    retry and degrade to serial in-process merges per ``retry_policy``;
    the engine is deterministic, so a shard merged after a crash is
    jframe-for-jframe what the first attempt would have produced.
    """

    def __init__(
        self,
        unifier: Optional[Unifier] = None,
        max_workers: Optional[int] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        self.unifier = unifier or Unifier()
        self.max_workers = max_workers
        self.retry_policy = retry_policy or RetryPolicy()
        #: Shard ledger (count, pool size, pool faults) of the last call;
        #: the pipeline folds it into ``report.health.unify_shards``.
        self.health = ShardHealth()

    def stream_unify(
        self, traces: Sequence[RadioTrace], bootstrap: BootstrapResult
    ) -> UnifyStream:
        """A :class:`UnifyStream` over the sharded merge.

        Serial mode is fully lazy — every shard engine advances only as
        the consumer drains the merge.  Pool mode dispatches the shards
        eagerly (the workers run to completion) and streams the merged
        result.
        """
        self.health = ShardHealth()
        shards = partition_traces(traces)
        workers = resolve_pool_workers(self.max_workers, len(shards))
        track_order = [t.radio_id for t in traces]
        if workers <= 1:
            self.health.shards = len(shards)
            return stream_shards(self.unifier, shards, bootstrap, track_order)
        self.health.pool_workers = workers
        # File-backed streams hold decoder threads and do not pickle:
        # drain them here — after the partition, which needs only their
        # metadata — and ship the workers plain traces.  Draining in the
        # parent also fills ``decode_health`` where the pipeline reads it.
        shards = [
            [
                RadioTrace(
                    t.radio_id, t.channel, t.records, building_id=t.building_id
                )
                if hasattr(t, "ensure_index")
                else t
                for t in shard
            ]
            for shard in shards
        ]
        # Collected in shard order — the merge interleaving must not
        # depend on completion order.
        results = map_shards_with_recovery(
            _unify_shard,
            [(self.unifier, shard, bootstrap) for shard in shards],
            max_workers=workers,
            policy=self.retry_policy,
            health=self.health,
            label="unify",
        )
        merged = merge_shard_streams(
            [_drain_shard(jframes) for jframes, _, _ in results]
        )
        return UnifyStream(
            merged,
            [(tracks, stats) for _, tracks, stats in results],
            track_order,
        )

    def iter_unify(
        self, traces: Sequence[RadioTrace], bootstrap: BootstrapResult
    ) -> Iterator[JFrame]:
        """Generator of globally time-ordered jframes."""
        return iter(self.stream_unify(traces, bootstrap))

    def unify(
        self, traces: Sequence[RadioTrace], bootstrap: BootstrapResult
    ) -> UnificationResult:
        """Batch API: identical result shape (and content) to ``Unifier``."""
        return self.stream_unify(traces, bootstrap).drain()
