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

A checkpoint is written where it is taken: at the boundary,
``save_checkpoint`` pickles the state into a temp file and
``os.replace``-s it onto ``checkpoint_path``, and the daemon goes back
to merging once the file is in place.  The library starts no process
and no thread.

The same boundaries, every ``checkpoint_every`` consumed records, are
the collector's schedule.  ``serve()`` pauses automatic cyclic
collection from its first line to its report (the batch run's pause,
handing the caller's state back on every exit) and runs one young
collection, ``gc.collect(1)``, at each boundary, with or without a
checkpoint path, and a full one when CPython's own rule says one is
due (see :meth:`JigsawDaemon._collect`).

Batch and daemon differ only in record source, checkpoint cadence and
window sealing.

The feed protocol: ``next_record(radio_id) -> Optional[TraceRecord]``
(``None`` = end of that radio's stream) is the one way a record reaches
the daemon; ``traces`` is the roster, read for each radio's
``radio_id``, ``channel`` and ``building_id`` only; ``clock_groups()``
names the radios sharing a capture clock; ``seek(counts)`` makes each
radio's ``counts[radio_id]``-th record the next one served.  The
bootstrap reads its window through ``next_record``; the daemon then
seeks the feed back to the start, and the merge reads every record
through ``next_record`` again.  So a feed must serve a radio from its
first record a second time, as it must anyway for a daemon started over
after a crash before its first checkpoint.  What the daemon has read is
the merge's count, not the feed's (``UnifyStream.read_counts``): a
restore seeks a fresh feed to it.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Callable, List, Optional, Sequence

from ..core.link.exchange import EXCHANGE_REORDER_SLACK_US
from ..core.passes import PipelinePass, SealedWindow
from ..core.pipeline import (
    JigsawReport,
    ReconstructionDrive,
    _collection_paused,
    assemble_report,
)
from ..core.sync.bootstrap import bootstrap_synchronization
from ..core.unify.unifier import Unifier, UnifyStream
from ..jtrace.io import RadioTrace
from ..jtrace.records import TraceRecord
from .checkpoint import (
    CheckpointError,
    CheckpointState,
    load_checkpoint,
    save_checkpoint,
)

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

#: CPython's own rule for a full collection, at its default thresholds:
#: one is due once ten young collections have run since the last, and
#: they have moved into the oldest generation more than a quarter of
#: what the last one left there.
FULL_COLLECTION_AFTER = 10
FULL_COLLECTION_SHARE = 0.25


class _FeedReader(RadioTrace):
    """One roster radio, read through the feed for the bootstrap.

    Each pull is one ``next_record``.  A source that raises leaves the
    reader as it was, keeping no failure to raise again, so a second
    ``serve()`` reads on from what the bootstrap already holds.  The
    radio's channels are its roster channel, so the shard partition
    reads no record.
    """

    def __init__(
        self,
        roster: RadioTrace,
        next_record: Callable[[int], Optional[TraceRecord]],
    ) -> None:
        super().__init__(
            roster.radio_id,
            roster.channel,
            building_id=roster.building_id,
            channel_set=frozenset((roster.channel,)),
        )
        self._next = partial(next_record, roster.radio_id)

    def _pull_some(self) -> int:
        record = self._next()
        if record is None:
            return 0
        self._records.append(record)
        return 1

    def stand_in(self) -> RadioTrace:
        """This radio without its records: a merge cursor over it starts
        empty and keeps nothing it is handed."""
        return RadioTrace(
            self.radio_id,
            self.channel,
            building_id=self.building_id,
            channel_set=self.channel_set,
        )


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
    #: Wall time the checkpoint writes of this incarnation took.
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
        self._passes: List[PipelinePass] = list(passes)

        # The restorable state: merge, drive and bootstrap are filled in
        # at start, or the whole object replaced by a restore.
        self._state = CheckpointState(merge=None, drive=None, bootstrap=None)
        #: The bootstrap's readers, until the merge exists.
        self._readers: List[_FeedReader] = []
        self._resumed = False
        self._reported = False
        self._last_boundary_at = 0
        self._checkpoint_bytes_last = 0
        self._checkpoint_seconds_total = 0.0
        # The collector's ledger (see ``_collect``): objects in the
        # oldest generation after the last full collection, and those
        # the young collections have moved there since.
        self._old_objects = 0
        self._promoted = 0
        self._young_collections = 0

    # --- observability -----------------------------------------------------

    @property
    def watermark_us(self) -> float:
        """Conservative downstream watermark (monotone, never regresses)."""
        drive = self._state.drive
        if drive is None:
            return float("-inf")
        return drive.watermark_us

    @property
    def total_consumed(self) -> int:
        """Records read from the feed: the bootstrap's reads until the
        merge exists, then the merge's count."""
        if self._state.merge is None:
            return sum(len(r.replay_buffer) for r in self._readers)
        return self._state.total_consumed

    @property
    def published_windows(self) -> List[SealedWindow]:
        return list(self._state.published.values())

    @property
    def checkpoints_written(self) -> int:
        return self._state.checkpoints_written

    @property
    def checkpoint_bytes_last(self) -> int:
        """Size of the last checkpoint this incarnation wrote (0: none)."""
        return self._checkpoint_bytes_last

    @property
    def checkpoint_seconds_total(self) -> float:
        """Wall time this incarnation's checkpoint writes took."""
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
        is ``seek``-ed to what the checkpointed merge had read from each
        radio, so the next ``next_record`` returns the first record the
        crashed daemon's merge never read.  Passes and the materialize
        choice are the crashed daemon's own, carried by the checkpointed
        drive.
        """
        state = load_checkpoint(checkpoint_path)
        daemon = cls(
            feed,
            unifier=state.merge.unifier,
            passes=state.drive.passes,
            materialize=state.drive.materializer is not None,
            checkpoint_path=checkpoint_path,
            checkpoint_every=checkpoint_every,
        )
        feed.seek(state.consumed)
        daemon._bind_feed(state.merge)
        daemon._state = state
        daemon._last_boundary_at = state.total_consumed
        daemon._resumed = True
        return daemon

    def serve(
        self, stop_after_records: Optional[int] = None
    ) -> Optional[ServiceReport]:
        """Run until the feed ends; return the final report.

        ``stop_after_records`` simulates a SIGKILL for the crash/resume
        suite: the daemon returns ``None`` at the end of the step whose
        reads bring :attr:`total_consumed` to it, before that step's
        boundary — at most ``SLICE - 1`` records past it once each shard
        has read its radios' first records — with no final checkpoint,
        no flushing, no cleanup.  Recovery is whatever the last periodic
        checkpoint captured, exactly as a real kill.

        A checkpoint is written at its boundary, so every return leaves
        on disk the last boundary's checkpoint.  A write that fails
        raises :class:`CheckpointError` there, with the previous file in
        place; the loop is resumable, so a second ``serve()`` goes on
        from that boundary.

        Automatic cyclic collection is paused for the whole call, and
        the caller's collector state comes back on every exit; the
        collections in between are the boundaries' (:meth:`_collect`).

        A daemon reports once: ``serve()`` after the report was returned
        raises :class:`RuntimeError` and changes nothing.
        """
        if self._reported:
            raise RuntimeError(
                "this daemon has already returned its report; restore a "
                "new one from its checkpoint to serve again"
            )
        started_clock = time.perf_counter()
        with _collection_paused():
            if self._state.merge is None:
                self._start()
            self._old_objects = len(gc.get_objects(2))
            self._promoted = self._young_collections = 0
            if not self._loop(stop_after_records):
                return None
            report = self._finalize(started_clock)
        self._reported = True
        state = self._state
        return ServiceReport(
            report=report,
            published=list(state.published.values()),
            checkpoints_written=state.checkpoints_written,
            checkpoint_bytes_last=self._checkpoint_bytes_last,
            checkpoint_seconds_total=self._checkpoint_seconds_total,
            resumed=self._resumed,
        )

    # --- startup -----------------------------------------------------------

    def _start(self) -> None:
        """Fill the state in; the merge goes last, because ``serve()``
        starts again until it is set.

        The bootstrap reads its window through one reader per roster
        radio.  A source that raises mid-window leaves the readers as
        they are, so the next call re-runs the bootstrap over what they
        hold and reads on.  Then the feed is sought back to every
        radio's first record, and the merge reads each record again,
        through cursors that start empty: no record the bootstrap read
        stays with the daemon.
        """
        feed, state = self.feed, self._state
        if not self._readers:
            self._readers = [
                _FeedReader(radio, feed.next_record) for radio in feed.traces
            ]
        state.drive = ReconstructionDrive(
            self._passes, materialize=self.materialize
        )
        bootstrap = bootstrap_synchronization(
            self._readers, clock_groups=feed.clock_groups()
        )
        state.bootstrap = bootstrap
        feed.seek({reader.radio_id: 0 for reader in self._readers})
        merge = self.unifier.stream_unify(
            [reader.stand_in() for reader in self._readers], bootstrap
        )
        self._bind_feed(merge)
        state.merge = merge
        self._readers = []

    # --- the drive loop ----------------------------------------------------

    def _bind_feed(self, merge: UnifyStream) -> None:
        """Point every cursor of ``merge``, a quarantined radio's too, at
        the feed's records for its radio; the binding never enters a
        checkpoint."""
        next_record = self.feed.next_record
        cursors = list(merge.skipped)
        for engine in merge.engines:
            cursors.extend(engine.cursors.items())
        for radio_id, cursor in cursors:
            cursor.produce = partial(next_record, radio_id)

    def _loop(self, stop_after_records: Optional[int]) -> bool:
        """Step the coordinator a slice at a time until the feed drains;
        ``False`` if ``stop_after_records`` killed it first.

        Windows are sealed only when a step fed the drive.  After every
        step the merge's read count is checked against the kill, and
        then against the boundary: every ``checkpoint_every`` records
        read is one, the collection, then the checkpoint, if there is a
        path to write.  A source that raised mid-step (a stalled uplink)
        or a checkpoint that failed left the coordinator resumable, so a
        second ``serve()`` re-enters here.
        """
        state = self._state
        merge, drive = state.merge, state.drive
        while not merge.finished:
            released = merge.step(SLICE)
            if released:
                for jframe in released:
                    drive.feed(jframe)
                self._publish(drive.seal_ready())
            read = merge.records_read
            if stop_after_records is not None and read >= stop_after_records:
                return False
            if read - self._last_boundary_at >= self.checkpoint_every:
                self._last_boundary_at = read
                self._collect()
                if self.checkpoint_path is not None:
                    self._write_checkpoint()
        return True

    def _collect(self) -> None:
        """A boundary's collection: a young one, and a full one when due.

        The young collection walks only what was allocated since the
        last boundary and moves what survives into the oldest
        generation, so a record is walked once, not once per boundary.
        A cycle dropped after it was moved waits for the next full
        collection, so the garbage ``serve()`` holds stays in proportion
        to what it keeps alive.  Moves are counted as the young
        generation's allocation count, which is net of frees, less what
        the young collection found.
        """
        young = gc.get_count()[0]
        self._promoted += max(young - gc.collect(1), 0)
        self._young_collections += 1
        if (
            self._young_collections >= FULL_COLLECTION_AFTER
            and self._promoted > FULL_COLLECTION_SHARE * self._old_objects
        ):
            gc.collect()
            self._old_objects = len(gc.get_objects(2))
            self._promoted = self._young_collections = 0

    def _publish(self, sealed: Sequence[SealedWindow]) -> None:
        """At-least-once publication with a dedup ledger.

        Re-publications happen by design after a restore (windows sealed
        between the recovered checkpoint and the crash seal again); the
        ledger keeps the first copy — determinism guarantees any repeat
        is bit-identical.
        """
        published = self._state.published
        for window in sealed:
            if window.key not in published:
                published[window.key] = window

    def _write_checkpoint(self) -> None:
        """Write this boundary's state to ``checkpoint_path``.

        The file counts itself, so the state is pickled with the written
        count plus one, which the live count, and the size, reach only
        once ``save_checkpoint`` has replaced the file.  A failed write
        leaves the previous checkpoint and raises
        :class:`CheckpointError` carrying its exception."""
        path = self.checkpoint_path
        assert path is not None
        started = time.perf_counter()
        state = self._state
        state.checkpoints_written += 1
        try:
            size = save_checkpoint(path, state)
        except Exception as exc:
            raise CheckpointError(
                f"{path}: checkpoint {state.checkpoints_written} was not "
                f"written ({type(exc).__name__}: {exc})"
            ) from exc
        finally:
            state.checkpoints_written -= 1
            self._checkpoint_seconds_total += time.perf_counter() - started
        state.checkpoints_written += 1
        self._checkpoint_bytes_last = size

    # --- completion --------------------------------------------------------

    def _finalize(self, started_clock: float) -> JigsawReport:
        state = self._state
        merge, drive = state.merge, state.drive
        flows = drive.finish_streams()
        # Everything has now been delivered to every hook and the
        # watermark reads +inf: seal whatever windows remain.
        self._publish(drive.seal_ready())

        return assemble_report(
            drive, state.bootstrap, merge, (), flows, started_clock
        )


#: Re-exported for callers sizing window widths against the emission lag.
__all__ = [
    "DEFAULT_CHECKPOINT_EVERY",
    "EXCHANGE_REORDER_SLACK_US",
    "JigsawDaemon",
    "ServiceReport",
]
