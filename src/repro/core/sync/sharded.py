"""Channel-sharded, ingest-overlapped bootstrap (Section 4.1 at scale).

``bootstrap_synchronization`` is a single-threaded full-prepass: every
widening round re-reads every trace's examination window from the start,
and nothing else can run until it finishes.  Jigsaw's own design makes
the prepass embarrassingly parallel — a frame on channel 1 is never heard
by a radio parked on channel 11, so reference-set collection shards
cleanly by channel, with cross-channel bridging happening only through
shared capture clocks (``clock_groups``) in the final BFS.

:class:`ShardedBootstrap` is the coordinator:

* traces are grouped into per-channel shards, each collected by its own
  :class:`~repro.core.sync.bootstrap._BootstrapShard` — serially or on a
  ``concurrent.futures`` process pool (mirroring
  :class:`~repro.core.unify.hierarchy.MergeTree`'s serial/pool design,
  and sharing its worker-count policy via :func:`resolve_pool_workers`);
* collection is **single-read**: each trace's records are consumed
  incrementally, exactly once — the window cutoff is one bisect per
  trace, and the auto-widen loop feeds only the records between the old
  and the new limit instead of re-scanning from the start.  Traces
  backed by a replay-aware reader
  (:class:`~repro.jtrace.io.StreamingRadioTrace`) decode only the
  prefix the window needs; the buffered records are later replayed into
  unification without a second read of the file;
* the bridge phase unions the shard payloads (order-independent by
  construction — see :func:`~repro.core.sync.bootstrap.union_shard_payloads`)
  and runs the covering-family selection and offset BFS globally, with
  ``clock_groups`` providing the only cross-channel edges.

Execution mode never changes the answer: serial and pool collection are
bit-identical to :func:`~repro.core.sync.bootstrap.bootstrap_synchronization`
(``tests/test_bootstrap_parity.py`` holds the property).
"""

from __future__ import annotations

import os
from bisect import bisect_right
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ...jtrace.io import RadioTrace, StreamingRadioTrace
from ...jtrace.records import TraceRecord
from ..faults import (
    PoolHandle,
    RetryPolicy,
    ShardHealth,
    map_shards_with_recovery,
)
from .bootstrap import (
    ArrivalIndex,
    BootstrapResult,
    DEFAULT_BOOTSTRAP_WINDOW_US,
    DEFAULT_STABILITY_TOLERANCE_US,
    ShardPayload,
    SyncPartitionError,
    _BootstrapShard,
    _resolve_offsets,
    _select_covering_family,
    _shared_sets,
    log_quarantine_warning,
    resolve_island_mode,
    resolve_locality_map,
    union_shard_payloads,
)
from .refs import ReferenceKey


def resolve_pool_workers(max_workers: Optional[int], n_shards: int) -> int:
    """Worker count for a sharded stage; <= 1 means run serially.

    ``None`` auto-sizes to the CPU count; ``0``/``1`` force serial;
    ``n > 1`` caps the pool.  Never more workers than shards, and never
    more than the machine has cores: an explicit request for 32 workers
    on a 4-core runner gets 4.  The CPU cap never demotes an explicit
    pool request to serial (floor of two) — pool semantics (process
    isolation, crash recovery) are part of the contract callers opt
    into, not just a throughput knob, and the fault suites rely on a
    2-worker pool being a real pool even on a 1-core box.  This is the
    one policy both sharded stages (bootstrap here, unification in
    :class:`~repro.core.unify.hierarchy.MergeTree`) resolve through; the
    chosen count is surfaced on
    :attr:`~repro.core.faults.ShardHealth.pool_workers` so every pool
    run is auditable from ``report.health``.

    ``0`` and ``1`` are documented serial modes; anything below is a
    caller bug (a negative pool size has no meaning), rejected loudly
    rather than silently clamped to serial.
    """
    if max_workers is not None and max_workers < 0:
        raise ValueError(
            f"max_workers must be None (auto), 0/1 (serial) or a positive "
            f"pool size; got {max_workers}"
        )
    if n_shards <= 1:
        return 1
    cpus = os.cpu_count() or 1
    if max_workers is None:
        budget = cpus
    else:
        budget = min(max(1, max_workers), max(2, cpus))
    return min(budget, n_shards)


def _window_cutoff(
    trace: RadioTrace, window_us: int, lo: int
) -> Tuple[Sequence[TraceRecord], int]:
    """Records of ``trace`` and the index one past its examination window.

    One bisect on the (local-time-ordered) records instead of a
    per-record compare; streaming traces decode just far enough to
    answer, buffering what they read for later replay.
    """
    first = trace.first_timestamp_us
    if first is None:
        return (), 0
    limit = first + window_us
    if isinstance(trace, StreamingRadioTrace):
        return trace.buffered_until(limit)
    records = trace.records
    if lo < len(records) and records[-1].timestamp_us <= limit:
        return records, len(records)
    return records, bisect_right(
        records, limit, lo=lo, key=lambda r: r.timestamp_us
    )


def _collect_shard_prefixes(
    prefixes: Sequence[Tuple[int, int, int, Sequence[TraceRecord]]],
) -> ShardPayload:
    """Pool worker entry point: collect one shard's (pickled) prefixes.

    ``prefixes`` holds ``(trace position, radio id, index base, window
    records)`` tuples — the base re-anchors the shipped slice at its
    absolute record index, so the arrival order recorded per reference
    set is identical to serial collection even across widening rounds,
    and the payload unions with other shards' in any order.
    """
    shard = _BootstrapShard()
    for trace_pos, radio_id, base, records in prefixes:
        shard.feed_slice(
            records, 0, len(records), trace_pos, radio_id, index_base=base
        )
    return shard.finish()


class ShardedBootstrap:
    """Channel-sharded front-end over the bootstrap prepass.

    ``max_workers`` selects the execution mode exactly like
    :class:`~repro.core.unify.hierarchy.MergeTree`:

    * ``None`` (default) — auto: a process pool when the machine has more
      than one CPU *and* there is more than one channel shard, else
      serial;
    * ``0`` or ``1`` — always serial, in-process;
    * ``n > 1`` — a process pool of at most ``n`` workers.

    Serial mode is fully incremental (single read, widening feeds only
    new records); pool mode keeps the worker pool resident across
    auto-widen rounds and ships each round only the delta since the
    previous window — the incremental pool widening protocol.  Campus
    inputs (traces stamped with ``building_id``) shard into
    (building, channel) leaves whose payloads are bridged
    building-locally before the global covering-family selection, and
    default to ``island_mode="local"`` — each building synchronizes on
    its own island timeline instead of being quarantined off building
    0's (see :func:`~repro.core.sync.bootstrap.bootstrap_synchronization`
    for the mode semantics).
    """

    def __init__(
        self,
        max_workers: Optional[int] = None,
        window_us: int = DEFAULT_BOOTSTRAP_WINDOW_US,
        auto_widen: bool = True,
        max_window_us: int = 16_000_000,
        retry_policy: Optional[RetryPolicy] = None,
        stability_tolerance_us: float = DEFAULT_STABILITY_TOLERANCE_US,
        island_mode: Optional[str] = None,
    ) -> None:
        if window_us <= 0:
            raise ValueError("bootstrap window must be positive")
        if island_mode not in (None, "quarantine", "local"):
            raise ValueError(f"unknown island_mode {island_mode!r}")
        #: Island policy; ``None`` resolves per input fleet (see
        #: :func:`~repro.core.sync.bootstrap.resolve_island_mode`).
        self.island_mode = island_mode
        self.max_workers = max_workers
        self.window_us = window_us
        self.auto_widen = auto_widen
        self.max_window_us = max_window_us
        self.retry_policy = retry_policy or RetryPolicy()
        self.stability_tolerance_us = stability_tolerance_us
        #: Pool-fault ledger for the most recent :meth:`bootstrap` call.
        self.health = ShardHealth()

    # --- internals ---------------------------------------------------------

    @staticmethod
    def _shard_groups(
        traces: Sequence[RadioTrace],
    ) -> Tuple[List[List[int]], List[Optional[int]]]:
        """Trace positions grouped into (building, home channel) leaves.

        Sharding is a parallelism structure, not a correctness one — the
        union + global bridge produce identical output for *any* trace
        partition — so grouping keys off metadata only (the trace's home
        channel plus its ``building_id`` locality stamp, no record scan)
        and channel-hopping traces simply ride in their home shard.
        Campus inputs therefore get ``buildings x channels`` leaves for
        the pool to spread over instead of one fat shard per channel;
        when any trace lacks a building stamp the grouping falls back to
        channel-only, mirroring
        :func:`~repro.core.unify.unifier.partition_traces`.  Returns the
        groups in (building, channel) order plus each group's building
        (all ``None`` on the legacy path).
        """
        keys = [getattr(trace, "building_id", None) for trace in traces]
        use_locality = bool(traces) and all(k is not None for k in keys)
        by_leaf: Dict[Tuple[int, int], List[int]] = {}
        for pos, trace in enumerate(traces):
            building = keys[pos] if use_locality else 0
            by_leaf.setdefault((building, trace.channel), []).append(pos)
        leaves = sorted(by_leaf)
        return (
            [by_leaf[leaf] for leaf in leaves],
            [leaf[0] if use_locality else None for leaf in leaves],
        )

    @staticmethod
    def _bridge_payloads(
        payloads: Sequence[ShardPayload],
        leaf_buildings: Sequence[Optional[int]],
    ) -> Tuple[
        Dict[ReferenceKey, Dict[int, int]],
        Dict[ReferenceKey, ArrivalIndex],
        int,
    ]:
        """Union leaf payloads — building-locally first, then globally.

        The union is order-independent by construction (absolute arrival
        indices, per-radio-disjoint members), so the two-stage fold is
        bit-identical to one flat union; the staging is what a
        distributed deployment would run building-locally before
        shipping one payload per building to the coordinator.
        ``payloads`` may hold several widening rounds' worth of deltas —
        round ``r``'s payload for leaf ``i`` sits at ``r * n_leaves + i``.
        """
        n_leaves = len(leaf_buildings)
        if not n_leaves or leaf_buildings[0] is None:
            return union_shard_payloads(payloads)
        per_building: Dict[int, List[ShardPayload]] = {}
        for index, payload in enumerate(payloads):
            building = leaf_buildings[index % n_leaves]
            assert building is not None
            per_building.setdefault(building, []).append(payload)
        return union_shard_payloads(
            union_shard_payloads(per_building[building])
            for building in sorted(per_building)
        )

    def _feed_serial(
        self,
        traces: Sequence[RadioTrace],
        groups: Sequence[Sequence[int]],
        shards: Sequence[_BootstrapShard],
        positions: List[int],
        window_us: int,
    ) -> None:
        """Feed every trace's unconsumed window records into its shard."""
        for group, shard in zip(groups, shards):
            for pos in group:
                trace = traces[pos]
                lo = positions[pos]
                records, hi = _window_cutoff(trace, window_us, lo)
                if hi > lo:
                    shard.feed_slice(records, lo, hi, pos, trace.radio_id)
                    positions[pos] = hi

    def _collect_pool(
        self,
        traces: Sequence[RadioTrace],
        groups: Sequence[Sequence[int]],
        positions: List[int],
        window_us: int,
        workers: int,
        handle: Optional[PoolHandle] = None,
    ) -> List[ShardPayload]:
        """Ship each shard's new window records to a pool, in shard order.

        This is the incremental pool widening protocol: the worker pool
        stays **resident** across auto-widen rounds (via ``handle``), and
        each round ships only the delta — the records between the old
        and new window limits — never re-shipping the shard.  A fresh
        per-round :class:`~repro.core.sync.bootstrap._BootstrapShard`
        over just the delta *is* the delta payload: payload unions are
        order-independent with absolute arrival indices, so accumulated
        round payloads reproduce a full re-ship bit for bit
        (``tests/test_hierarchy_parity.py`` holds the property).
        Worker death and missed deadlines are retried / degraded to
        serial per ``retry_policy`` — results come back in shard order
        either way (the union is order-blind anyway; this keeps logs and
        debugging deterministic too).
        """
        shard_prefixes: List[List[Tuple[int, int, int, List[TraceRecord]]]] = []
        for group in groups:
            prefixes: List[Tuple[int, int, int, List[TraceRecord]]] = []
            for pos in group:
                trace = traces[pos]
                lo = positions[pos]
                records, hi = _window_cutoff(trace, window_us, lo)
                if hi > lo:
                    prefixes.append(
                        (pos, trace.radio_id, lo, list(records[lo:hi]))
                    )
                    positions[pos] = hi
            shard_prefixes.append(prefixes)
        return map_shards_with_recovery(
            _collect_shard_prefixes,
            [(prefixes,) for prefixes in shard_prefixes],
            max_workers=workers,
            policy=self.retry_policy,
            health=self.health,
            label="bootstrap",
            handle=handle,
        )

    # --- public API --------------------------------------------------------

    def bootstrap(
        self,
        traces: Sequence[RadioTrace],
        clock_groups: Iterable[Sequence[int]] = (),
        strict: bool = False,
    ) -> BootstrapResult:
        """Compute bootstrap offsets with sharded, single-read collection.

        Bit-identical to
        :func:`~repro.core.sync.bootstrap.bootstrap_synchronization` on
        the same input.  ``strict=True`` raises
        :class:`~repro.core.sync.bootstrap.SyncPartitionError` when the
        reference graph stays partitioned after widening (the Section 6
        pod-reduction failure mode).
        """
        radios = [trace.radio_id for trace in traces]
        island_mode = self.island_mode
        if island_mode is None:
            island_mode = resolve_island_mode(traces)
        locality_of = (
            resolve_locality_map(traces) if island_mode == "local" else None
        )
        groups, leaf_buildings = self._shard_groups(traces)
        workers = resolve_pool_workers(self.max_workers, len(groups))
        clock_groups = [list(g) for g in clock_groups]
        positions = [0] * len(traces)
        window = self.window_us
        self.health = ShardHealth()
        self.health.pool_workers = workers if workers > 1 else 0
        widen_rounds = 0
        ever_unreachable: Set[int] = set()

        serial_shards: List[_BootstrapShard] = []
        pool_payloads: List[ShardPayload] = []
        handle: Optional[PoolHandle] = None
        if workers <= 1:
            serial_shards = [_BootstrapShard() for _ in groups]
        else:
            handle = PoolHandle()

        try:
            while True:
                if workers <= 1:
                    self._feed_serial(
                        traces, groups, serial_shards, positions, window
                    )
                    payloads: List[ShardPayload] = [
                        shard.finish() for shard in serial_shards
                    ]
                else:
                    pool_payloads.extend(
                        self._collect_pool(
                            traces, groups, positions, window, workers,
                            handle,
                        )
                    )
                    payloads = pool_payloads
                sets, order, seen = self._bridge_payloads(
                    payloads, leaf_buildings
                )
                shared = _shared_sets(sets)
                family = _select_covering_family(shared, radios, order)
                offsets, unreachable, quarantined, islands = _resolve_offsets(
                    radios, family, clock_groups,
                    self.stability_tolerance_us,
                    island_mode=island_mode, locality_of=locality_of,
                )
                if (
                    not unreachable
                    or not self.auto_widen
                    or window >= self.max_window_us
                ):
                    if unreachable and strict:
                        raise SyncPartitionError(unreachable)
                    log_quarantine_warning(quarantined, "ShardedBootstrap")
                    return BootstrapResult(
                        offsets_us=offsets,
                        unreachable=unreachable,
                        reference_sets_used=len(family),
                        reference_frames_seen=seen,
                        window_us=window,
                        quarantined=quarantined,
                        islands=islands,
                        rejoined=[
                            r for r in radios
                            if r in ever_unreachable and r in offsets
                        ],
                        widen_rounds=widen_rounds,
                    )
                ever_unreachable.update(unreachable)
                widen_rounds += 1
                window = min(window * 2, self.max_window_us)
        finally:
            if handle is not None:
                handle.close()
