"""The always-on reconstruction daemon: live drive loop + checkpoints.

:class:`JigsawDaemon` runs the full Jigsaw pipeline as a service.  Where
``JigsawPipeline.run`` drains finite traces to exhaustion, the daemon
pulls records one at a time from a *feed* (a live uplink, a
:class:`~repro.service.queues.QueueFeed`, or the simulator test double
:class:`~repro.sim.stream.LiveScenarioFeed`), advances the merge
incrementally, publishes windowed pass output as the emission watermark
passes it, and periodically checkpoints the entire reconstruction state
so a killed daemon resumes mid-trace **bit-identically**.

Determinism is the load-bearing property, and it rests on three legs:

1. **The batch merge engine, laggard first** — each channel shard
   runs the batch pipeline's own merge engine over cursors that read
   the feed; every scheduling turn advances the unfinished shard with
   the lowest emission watermark — the one the release rule of leg 2
   is waiting for — by a slice of :data:`SLICE` records.  Each pop
   reads that radio's successor before anything else happens, so the
   processing order is a pure function of the per-radio record
   sequences, never of arrival timing, slice size or restart points;
   and the schedule reads nothing but checkpointed engine state.
2. **Watermark-gated k-way release** — a shard's emitted jframe is
   handed to the downstream drive only when every other shard provably
   cannot emit an earlier one (its FIFO head is later, or its emission
   watermark has passed the candidate).  The released sequence is
   therefore exactly the batch pipeline's ``heapq.merge`` order, just
   discovered incrementally.
3. **Checkpoints at deterministic loop boundaries** — state is captured
   only between two ``advance`` calls, at a record count every
   incarnation passes through, so the uninterrupted run provably visits
   the exact state a restored run starts from.

The feed protocol: ``next_record(radio_id) -> Optional[TraceRecord]``
(``None`` = end of that radio's stream), plus ``traces`` /
``clock_groups()`` for the bootstrap prepass and ``consumed()`` /
``seek()`` for checkpoint alignment.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

from ..core.faults import HealthReport
from ..core.link.exchange import EXCHANGE_REORDER_SLACK_US
from ..core.passes import PipelinePass, SealedWindow
from ..core.pipeline import JigsawReport, ReconstructionDrive, assemble_report
from ..core.sync.bootstrap import BootstrapResult, bootstrap_synchronization
from ..core.unify.jframe import JFrame
from ..core.unify.unifier import (
    Unifier,
    UnifyStats,
    UnifyStream,
    _MergeEngine,
    partition_traces,
)
from ..jtrace.io import RadioTrace
from ..jtrace.records import TraceRecord
from .checkpoint import CheckpointState, load_checkpoint, save_checkpoint

#: Default checkpoint cadence, in consumed records.
DEFAULT_CHECKPOINT_EVERY = 2_000

#: Records one scheduling turn merges on the laggard shard.  Sized on
#: ``benchmarks/e2e`` ``flash_crowd_service`` (seed 7, traced, three
#: interleaved runs each): ``service.serve_nockpt_s`` median 0.536 /
#: 0.455 / 0.530 s at 16 / 64 / 256 — inside that host's run-to-run
#: spread of each other, against 0.58 s for one record per shard per
#: turn — while the exact-repeat ``window_lag_us_p50`` reads 196,356 /
#: 196,356 / 229,423: 64 amortizes ``advance``'s prologue without
#: letting a shard run a visible distance ahead of the others.
SLICE = 64


class _Killed(Exception):
    """``stop_after_records`` reached: unwinds the drive loop mid-slice."""


@dataclass
class ServiceReport:
    """What a completed daemon run surrenders.

    ``report`` is the same :class:`~repro.core.pipeline.JigsawReport`
    the batch pipeline produces (bit-identical to one, for the same
    records); ``published`` is the at-least-once publication ledger in
    first-publication order — every window each registered windowed
    pass ever sealed, deduplicated by ``(pass_name, window_id)``.
    """

    report: JigsawReport
    published: List[SealedWindow] = field(default_factory=list)
    checkpoints_written: int = 0
    #: Size of the last checkpoint file written (0 if none was).
    checkpoint_bytes_last: int = 0
    #: Wall time this incarnation spent building and writing checkpoints.
    checkpoint_seconds_total: float = 0.0
    resumed: bool = False

    def published_for(self, pass_name: str) -> List[SealedWindow]:
        return [w for w in self.published if w.pass_name == pass_name]


class JigsawDaemon:
    """Checkpointed live reconstruction over a per-radio record feed."""

    def __init__(
        self,
        feed: Any,
        unifier: Optional[Unifier] = None,
        passes: Sequence[PipelinePass] = (),
        materialize: bool = True,
        checkpoint_path: Optional[Path] = None,
        checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
        bootstrap_window_us: int = 1_000_000,
        auto_widen_bootstrap: bool = True,
    ) -> None:
        if checkpoint_every <= 0:
            raise ValueError("checkpoint cadence must be positive")
        self.feed = feed
        self.unifier = unifier or Unifier()
        self.materialize = materialize
        self.checkpoint_path = (
            Path(checkpoint_path) if checkpoint_path is not None else None
        )
        self.checkpoint_every = checkpoint_every
        self.bootstrap_window_us = bootstrap_window_us
        self.auto_widen_bootstrap = auto_widen_bootstrap
        self._passes: List[PipelinePass] = list(passes)

        self._started = False
        self._resumed = False
        self._engines: List[_MergeEngine] = []
        self._fifos: List[Deque[JFrame]] = []
        self._drive: Optional[ReconstructionDrive] = None
        self._bootstrap: Optional[BootstrapResult] = None
        self._health = HealthReport()
        self._quarantine_stats = UnifyStats()
        self._track_order: List[int] = []
        self._published: Dict[Tuple[str, int], SealedWindow] = {}
        self._total_consumed = 0
        self._stop_after_records: Optional[int] = None
        self._last_checkpoint_at = 0
        self._checkpoints_written = 0
        self._checkpoint_bytes_last = 0
        self._checkpoint_seconds_total = 0.0

    # --- observability -----------------------------------------------------

    @property
    def watermark_us(self) -> float:
        """Conservative downstream watermark (monotone, never regresses)."""
        if self._drive is None:
            return float("-inf")
        return self._drive.watermark_us

    @property
    def total_consumed(self) -> int:
        return self._total_consumed

    @property
    def published_windows(self) -> List[SealedWindow]:
        return list(self._published.values())

    @property
    def checkpoints_written(self) -> int:
        return self._checkpoints_written

    @property
    def checkpoint_bytes_last(self) -> int:
        """Size of the last checkpoint this incarnation wrote (0: none)."""
        return self._checkpoint_bytes_last

    @property
    def checkpoint_seconds_total(self) -> float:
        """Wall time this incarnation has spent writing checkpoints."""
        return self._checkpoint_seconds_total

    # --- lifecycle ---------------------------------------------------------

    @classmethod
    def restore(
        cls,
        checkpoint_path: Path,
        feed: Any,
        checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    ) -> "JigsawDaemon":
        """Rebuild a daemon from its last complete checkpoint.

        ``feed`` must be a fresh feed over the *same* record source (the
        simulator test double re-derives it from the scenario config); it
        is ``seek``-ed to the checkpoint's consumed counts so the next
        ``next_record`` returns the first record the crashed daemon
        never consumed.  Passes and the materialize choice are the
        crashed daemon's own, carried by the checkpointed drive.
        """
        state = load_checkpoint(checkpoint_path)
        engines: List[_MergeEngine] = state.engines
        unifier = engines[0].unifier if engines else Unifier()
        daemon = cls(
            feed,
            unifier=unifier,
            materialize=state.drive.materializer is not None,
            checkpoint_path=checkpoint_path,
            checkpoint_every=checkpoint_every,
        )
        feed.seek(state.consumed)
        daemon._engines = engines
        daemon._bind_feed()
        daemon._fifos = [deque(f) for f in state.fifos]
        daemon._drive = state.drive
        daemon._passes = list(state.drive.passes)
        daemon._bootstrap = (
            None if state.bootstrap is None
            else BootstrapResult.from_state(state.bootstrap)
        )
        daemon._health = state.health
        daemon._quarantine_stats = state.quarantine_stats
        daemon._track_order = list(state.track_order)
        daemon._published = {w.key: w for w in state.published}
        daemon._total_consumed = state.total_consumed
        daemon._last_checkpoint_at = state.total_consumed
        daemon._checkpoints_written = state.checkpoints_written
        daemon._started = True
        daemon._resumed = True
        return daemon

    def serve(
        self, stop_after_records: Optional[int] = None
    ) -> Optional[ServiceReport]:
        """Run until the feed ends; return the final report.

        ``stop_after_records`` simulates a SIGKILL for the crash/resume
        suite: once the *total* consumed-record count reaches it, the
        daemon returns ``None`` immediately — mid-slice, with no final
        checkpoint, no flushing, no cleanup.  Recovery is whatever the
        last periodic checkpoint captured, exactly as a real kill.
        """
        started_clock = time.perf_counter()
        if not self._started:
            self._start()
        self._stop_after_records = stop_after_records
        try:
            self._loop()
        except _Killed:
            return None
        return self._finalize(started_clock)

    # --- startup -----------------------------------------------------------

    def _start(self) -> None:
        feed = self.feed
        bootstrap = bootstrap_synchronization(
            feed.traces,
            clock_groups=feed.clock_groups(),
            window_us=self.bootstrap_window_us,
            auto_widen=self.auto_widen_bootstrap,
        )
        self._bootstrap = bootstrap

        offsets = bootstrap.offsets_us
        # Quarantined radios contribute nothing; their record counts land
        # in the ledger exactly as the batch merge counts them.  Drained
        # once, here — the counters ride in every checkpoint, so a
        # restored daemon never re-drains.
        for trace in feed.traces:
            if trace.radio_id not in offsets:
                skipped = len(trace)
                self._quarantine_stats.records_in += skipped
                self._quarantine_stats.records_skipped_unsynchronized += (
                    skipped
                )

        # Same shard structure (and therefore the same k-way tie-break
        # order) as the batch pipeline; shards with no synchronized radio
        # are skipped — they can never emit.
        for shard in partition_traces(feed.traces):
            # Record-less stand-ins: an engine must not read the feed's
            # traces behind ``next_record``'s back, and a cursor that
            # starts empty retains nothing it is handed later.
            pending = [
                RadioTrace(t.radio_id, t.channel)
                for t in shard
                if t.radio_id in offsets
            ]
            if not pending:
                continue
            self._engines.append(
                _MergeEngine(self.unifier, pending, bootstrap)
            )
            self._fifos.append(deque())
        self._bind_feed()
        self._drive = ReconstructionDrive(
            self._passes, materialize=self.materialize
        )
        self._track_order = [t.radio_id for t in feed.traces]
        self._started = True

    # --- the drive loop ----------------------------------------------------

    def _bind_feed(self) -> None:
        """Point every engine cursor at the feed: at first start, and on
        restore — feed-bound callables never enter a checkpoint."""
        for engine in self._engines:
            for radio_id, cursor in engine.cursors.items():
                cursor.produce = partial(self._next_record, radio_id)

    def _next_record(self, radio_id: int, index: int) -> Optional[TraceRecord]:
        """A cursor's ``produce``: the feed's next record for the radio
        (the feed keeps each radio's position, so ``index`` goes unused)."""
        record = self.feed.next_record(radio_id)
        if record is not None:
            self._total_consumed += 1
            if (
                self._stop_after_records is not None
                and self._total_consumed >= self._stop_after_records
            ):
                raise _Killed  # simulated SIGKILL: stop mid-slice
        return record

    def _loop(self) -> None:
        """Advance the laggard shard a slice at a time until the feed drains.

        Each turn picks the unfinished engine with the lowest emission
        watermark (ties: lowest shard index) — the shard every queued
        jframe is waiting for, by the release rule — and merges up to
        :data:`SLICE` of its records.  Release is attempted only when
        that call emitted something or finished the shard (nothing else
        can unblock a FIFO head), sealing only when release fed the
        drive.  The choice reads checkpointed engine state only, so a
        restored daemon continues the identical schedule.
        """
        shards = list(zip(self._engines, self._fifos))
        drive = self._drive
        assert drive is not None
        # A source that raised mid-``advance`` (a stalled uplink, then a
        # second ``serve()``) left that call's jframes parked on the
        # engine with its watermark already past them: queue them
        # before any watermark is consulted.
        for engine, fifo in shards:
            fifo.extend(engine.take_parked())
        while True:
            running = [shard for shard in shards if not shard[0].finished]
            if not running:
                break
            # min() keeps the first of equals: ties go to the lowest shard.
            engine, fifo = min(running, key=lambda s: s[0].watermark_us)
            emitted = engine.advance(SLICE)
            if emitted or engine.finished:
                fifo.extend(emitted)
                if self._release():
                    self._publish(drive.seal_ready())
            if (
                self.checkpoint_path is not None
                and self._total_consumed - self._last_checkpoint_at
                >= self.checkpoint_every
            ):
                self._write_checkpoint()
        # Every watermark is +inf: whatever is still queued drains.
        if self._release():
            self._publish(drive.seal_ready())

    def _release(self) -> bool:
        """Feed the drive every jframe that is provably globally next;
        True if any was fed.

        Replicates ``heapq.merge``'s (timestamp, shard index) order: the
        minimum FIFO head is released only when every other shard either
        shows a later head or has an emission watermark at or past the
        candidate (a shard's future emissions are strictly later than
        its watermark, so it can never produce an earlier jframe).  The
        proof holds whenever it is attempted, provided every jframe a
        watermark has passed is in its FIFO (see :meth:`_loop` on parked
        emissions).
        """
        fifos = self._fifos
        engines = self._engines
        drive = self._drive
        assert drive is not None
        fed = False
        while True:
            best_si = -1
            best_ts = 0
            for si, fifo in enumerate(fifos):
                if fifo:
                    ts = fifo[0].timestamp_us
                    if best_si < 0 or ts < best_ts:
                        best_si, best_ts = si, ts
            if best_si < 0:
                return fed
            for si, engine in enumerate(engines):
                if si == best_si or fifos[si]:
                    continue
                if engine.watermark_us < best_ts:
                    return fed  # shard si could still emit something earlier
            drive.feed(fifos[best_si].popleft())
            fed = True

    def _publish(self, sealed: Sequence[SealedWindow]) -> None:
        """At-least-once publication with a dedup ledger.

        Re-publications happen by design after a restore (windows sealed
        between the recovered checkpoint and the crash seal again); the
        ledger keeps the first copy — determinism guarantees any repeat
        is bit-identical.
        """
        for window in sealed:
            if window.key not in self._published:
                self._published[window.key] = window

    def _write_checkpoint(self) -> None:
        assert self.checkpoint_path is not None
        started = time.perf_counter()
        state = CheckpointState(
            consumed=self.feed.consumed(),
            total_consumed=self._total_consumed,
            engines=self._engines,
            fifos=[list(f) for f in self._fifos],
            drive=self._drive,
            # The offset ledger goes through its explicit plain-data
            # schema, not object pickling: the one part of the format
            # an operator can inspect and other tools can parse.
            bootstrap=(
                None if self._bootstrap is None
                else self._bootstrap.to_state()
            ),
            health=self._health,
            quarantine_stats=self._quarantine_stats,
            track_order=list(self._track_order),
            published=list(self._published.values()),
            checkpoints_written=self._checkpoints_written + 1,
        )
        self._checkpoint_bytes_last = save_checkpoint(
            self.checkpoint_path, state
        )
        self._checkpoints_written += 1
        self._last_checkpoint_at = self._total_consumed
        self._checkpoint_seconds_total += time.perf_counter() - started

    # --- completion --------------------------------------------------------

    def _finalize(self, started_clock: float) -> ServiceReport:
        drive = self._drive
        bootstrap = self._bootstrap
        assert drive is not None and bootstrap is not None
        flows = drive.finish_streams(trim_exchange_refs=not self.materialize)
        # Everything has now been delivered to every hook; seal whatever
        # windows remain (watermark = +inf) and publish them.
        tail: List[SealedWindow] = []
        for p in drive.passes:
            tail.extend(p.seal_ready(float("inf")))
        self._publish(tail)

        # Quarantined radios ride as one more (track-less) shard source.
        merged = UnifyStream(
            iter(()),
            [(engine.tracks, engine.stats) for engine in self._engines]
            + [({}, self._quarantine_stats)],
            self._track_order,
        )
        report = assemble_report(
            drive,
            bootstrap,
            merged.tracks,
            merged.stats,
            self.feed.traces,
            self._health,
            flows,
            started_clock,
        )
        return ServiceReport(
            report=report,
            published=list(self._published.values()),
            checkpoints_written=self._checkpoints_written,
            checkpoint_bytes_last=self._checkpoint_bytes_last,
            checkpoint_seconds_total=self._checkpoint_seconds_total,
            resumed=self._resumed,
        )


#: Re-exported for callers sizing window widths against the emission lag.
__all__ = [
    "DEFAULT_CHECKPOINT_EVERY",
    "EXCHANGE_REORDER_SLACK_US",
    "JigsawDaemon",
    "ServiceReport",
]
