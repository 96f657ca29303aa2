"""The always-on reconstruction daemon: live drive loop + checkpoints.

:class:`JigsawDaemon` runs the full Jigsaw pipeline as a service.  Where
``JigsawPipeline.run`` drains finite traces to exhaustion, the daemon
pulls records one at a time from a *feed* (a live uplink, a
:class:`~repro.service.queues.QueueFeed`, or the simulator test double
:class:`~repro.sim.stream.LiveScenarioFeed`), advances the merge
incrementally, publishes windowed pass output as the emission watermark
passes it, and periodically checkpoints the entire reconstruction state
so a killed daemon resumes mid-trace **bit-identically**.

Determinism is the load-bearing property, and it rests on two legs:

1. **The batch coordinator** — the daemon holds the batch pipeline's
   own shard coordinator (:class:`~repro.core.unify.unifier.UnifyStream`)
   over cursors that read the feed, and steps it :data:`SLICE` records
   at a time where batch steps it a larger slice.  Each step advances
   the laggard shard and releases the jframes no shard can still
   precede, in (timestamp, shard) order; each pop reads that radio's
   successor before anything else happens, so what reaches the drive
   is a pure function of the per-radio record sequences, never of
   arrival timing, slice size or restart points.
2. **Checkpoints at deterministic loop boundaries** — state is captured
   only between two ``step`` calls, at a record count every
   incarnation passes through, so the uninterrupted run provably visits
   the exact state a restored run starts from.

Batch and daemon differ only in record source, checkpoint cadence and
window sealing.

The feed protocol: ``next_record(radio_id) -> Optional[TraceRecord]``
(``None`` = end of that radio's stream), plus ``traces`` /
``clock_groups()`` for the bootstrap prepass and ``consumed()`` /
``seek()`` for checkpoint alignment.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.faults import HealthReport
from ..core.link.exchange import EXCHANGE_REORDER_SLACK_US
from ..core.passes import PipelinePass, SealedWindow
from ..core.pipeline import JigsawReport, ReconstructionDrive, assemble_report
from ..core.sync.bootstrap import BootstrapResult, bootstrap_synchronization
from ..core.unify.unifier import Unifier, UnifyStream, partition_traces
from ..jtrace.io import RadioTrace
from ..jtrace.records import TraceRecord
from .checkpoint import CheckpointState, load_checkpoint, save_checkpoint

#: Default checkpoint cadence, in consumed records.
DEFAULT_CHECKPOINT_EVERY = 2_000

#: Records one daemon ``step`` merges on the laggard shard.  Sized on
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
        self._reported = False
        self._merge: Optional[UnifyStream] = None
        self._drive: Optional[ReconstructionDrive] = None
        self._bootstrap: Optional[BootstrapResult] = None
        self._health = HealthReport()
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
        merge: UnifyStream = state.merge
        daemon = cls(
            feed,
            unifier=merge.unifier,
            materialize=state.drive.materializer is not None,
            checkpoint_path=checkpoint_path,
            checkpoint_every=checkpoint_every,
        )
        feed.seek(state.consumed)
        daemon._merge = merge
        daemon._bind_feed()
        daemon._drive = state.drive
        daemon._passes = list(state.drive.passes)
        daemon._bootstrap = (
            None if state.bootstrap is None
            else BootstrapResult.from_state(state.bootstrap)
        )
        daemon._health = state.health
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

        A daemon reports once: ``serve()`` after the report was returned
        raises :class:`RuntimeError` and changes nothing.
        """
        if self._reported:
            raise RuntimeError(
                "this daemon has already returned its report; restore a "
                "new one from its checkpoint to serve again"
            )
        started_clock = time.perf_counter()
        if not self._started:
            self._start()
        self._stop_after_records = stop_after_records
        try:
            self._loop()
        except _Killed:
            return None
        report = self._finalize(started_clock)
        self._reported = True
        return report

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
        # The batch shards, with record-less stand-ins for synchronized
        # radios: an engine must not read the feed's traces behind
        # ``next_record``'s back, and a cursor that starts empty retains
        # nothing it is handed later.  Quarantined radios go in as they
        # are: the coordinator reads their length once, here, and its
        # counters ride in every checkpoint.
        self._merge = UnifyStream(
            self.unifier,
            [
                [
                    RadioTrace(t.radio_id, t.channel)
                    if t.radio_id in offsets
                    else t
                    for t in shard
                ]
                for shard in partition_traces(feed.traces)
            ],
            bootstrap,
            [t.radio_id for t in feed.traces],
        )
        self._bind_feed()
        self._drive = ReconstructionDrive(
            self._passes, materialize=self.materialize
        )
        self._started = True

    # --- the drive loop ----------------------------------------------------

    def _bind_feed(self) -> None:
        """Point every engine cursor at the feed: at first start, and on
        restore — feed-bound callables never enter a checkpoint."""
        assert self._merge is not None
        for engine in self._merge.engines:
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
        """Step the coordinator a slice at a time until the feed drains.

        Windows are sealed only when a step fed the drive.  A source
        that raised mid-step (a stalled uplink) left the coordinator
        resumable, so a second ``serve()`` re-enters here.
        """
        merge, drive = self._merge, self._drive
        assert merge is not None and drive is not None
        while not merge.finished:
            released = merge.step(SLICE)
            if released:
                for jframe in released:
                    drive.feed(jframe)
                self._publish(drive.seal_ready())
            if (
                self.checkpoint_path is not None
                and self._total_consumed - self._last_checkpoint_at
                >= self.checkpoint_every
            ):
                self._write_checkpoint()

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
            merge=self._merge,
            drive=self._drive,
            # The offset ledger goes through its explicit plain-data
            # schema, not object pickling: the one part of the format
            # an operator can inspect and other tools can parse.
            bootstrap=(
                None if self._bootstrap is None
                else self._bootstrap.to_state()
            ),
            health=self._health,
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
        merge, drive, bootstrap = self._merge, self._drive, self._bootstrap
        assert merge is not None and drive is not None
        assert bootstrap is not None
        flows = drive.finish_streams()
        # Everything has now been delivered to every hook; seal whatever
        # windows remain (watermark = +inf) and publish them.
        tail: List[SealedWindow] = []
        for p in drive.passes:
            tail.extend(p.seal_ready(float("inf")))
        self._publish(tail)

        report = assemble_report(
            drive,
            bootstrap,
            merge.tracks,
            merge.stats,
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
