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

A checkpoint leaves the critical path by ``fork``: the child pickles
the copy-on-write snapshot of the boundary's state into a pending file
while the parent goes back to merging, and the parent publishes it
(``os.replace`` onto ``checkpoint_path``) when it reaps the child.
Where ``os.fork`` is missing the same writer runs inline and goes
through the same publication.

The same boundaries, every ``checkpoint_every`` consumed records, are
the collector's schedule.  ``serve()`` pauses automatic cyclic
collection from its first line to its report (the batch run's pause,
handing the caller's state back on every exit) and runs one young
collection, ``gc.collect(1)``, at each boundary, with or without a
checkpoint path, and a full one when CPython's own rule says one is
due (see :meth:`JigsawDaemon._collect`).  A forked writer inherits the
paused collector, so it never walks, and so never copies, the pages it
shares with the daemon.

Batch and daemon differ only in record source, checkpoint cadence and
window sealing.

The feed protocol: ``next_record(radio_id) -> Optional[TraceRecord]``
(``None`` = end of that radio's stream), plus ``traces`` /
``clock_groups()`` for the bootstrap prepass and ``seek()`` for a
restore.  What the daemon has read is the merge's count, not the
feed's (``UnifyStream.read_counts``): a restore seeks the feed to it.
"""

from __future__ import annotations

import gc
import os
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, List, Optional, Sequence

from ..core.link.exchange import EXCHANGE_REORDER_SLACK_US
from ..core.passes import PipelinePass, SealedWindow
from ..core.pipeline import (
    JigsawReport,
    ReconstructionDrive,
    _collection_paused,
    assemble_report,
)
from ..core.sync.bootstrap import bootstrap_synchronization
from ..core.unify.unifier import Unifier, UnifyStream, partition_traces
from ..jtrace.io import RadioTrace
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

#: Bytes of a failed writer's exception text its pipe carries: one
#: atomic pipe write, so the writer never blocks on an unread pipe.
_ERROR_TEXT_MAX = 4096


def _write_pending(pending: Path, state: CheckpointState) -> str:
    """The one checkpoint writer: ``state`` into ``pending``.

    Returns the failure as text, ``""`` on success, so a forked writer
    can hand it to its parent; ``save_checkpoint`` has already removed
    its temp file when it fails.
    """
    try:
        save_checkpoint(pending, state)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return ""


@dataclass
class _Writer:
    """A checkpoint write not yet published.

    A forked writer has its ``pid``, the read end of the pipe its
    exception text comes back on, and the daemon's wall and CPU clocks
    when it was forked; an inline one (``pid`` 0) has already run and
    holds its outcome in ``error``.
    """

    pending: Path
    pid: int = 0
    errors_fd: int = -1
    error: str = ""
    forked_wall: float = 0.0
    forked_cpu: float = 0.0


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
    #: Size of the last checkpoint file published (0 if none was).
    checkpoint_bytes_last: int = 0
    #: Wall time ``serve()`` was blocked by checkpoints in this
    #: incarnation: state build, fork, waits on writers and publication
    #: (the whole write, where it runs inline).
    checkpoint_seconds_total: float = 0.0
    #: CPU seconds (user + sys) the forked writers spent; 0 inline.
    checkpoint_writer_cpu_s: float = 0.0
    #: Largest writer ``ru_maxrss`` in KiB, pages shared with the daemon
    #: included; 0 inline.
    checkpoint_writer_peak_rss_kb: int = 0
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
        self._resumed = False
        # Built once the feed has drained; ``serve()`` hands it over
        # once the last writer is reaped.
        self._report: Optional[JigsawReport] = None
        self._reported = False
        self._last_boundary_at = 0
        self._checkpoint_bytes_last = 0
        self._checkpoint_seconds_total = 0.0
        self._checkpoint_writer_cpu_s = 0.0
        self._checkpoint_writer_peak_rss_kb = 0
        self._writer: Optional[_Writer] = None
        self._forking = True
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
        """Records read from the feed, as the merge counts them."""
        return self._state.total_consumed

    @property
    def published_windows(self) -> List[SealedWindow]:
        return list(self._state.published.values())

    @property
    def checkpoints_written(self) -> int:
        return self._state.checkpoints_written

    @property
    def checkpoint_bytes_last(self) -> int:
        """Size of the last checkpoint this incarnation published (0: none)."""
        return self._checkpoint_bytes_last

    @property
    def checkpoint_seconds_total(self) -> float:
        """Wall time checkpoints have blocked this incarnation's
        ``serve()``: state build, fork, writer waits and publication."""
        return self._checkpoint_seconds_total

    @property
    def checkpoint_writer_cpu_s(self) -> float:
        """User + sys CPU seconds of the reaped forked writers (0 inline)."""
        return self._checkpoint_writer_cpu_s

    @property
    def checkpoint_writer_peak_rss_kb(self) -> int:
        """Largest reaped writer's ``ru_maxrss`` in KiB (0 inline)."""
        return self._checkpoint_writer_peak_rss_kb

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

        Every return — report, simulated kill or a raising source —
        first waits for the checkpoint writer in flight and publishes
        it, so the file on disk is the last boundary's checkpoint.  A
        writer that failed raises :class:`CheckpointError` there.  At
        feed end the report is built first, while that writer runs; if
        the writer then fails, the next ``serve()`` returns the report.

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
            if self._report is None:
                if self._state.merge is None:
                    self._start()
                self._old_objects = len(gc.get_objects(2))
                self._promoted = self._young_collections = 0
                try:
                    if not self._loop(stop_after_records):
                        return None
                    # Before the last reap, so that the writer in flight
                    # pickles while the daemon finishes its streams.
                    self._report = self._finalize(started_clock)
                finally:
                    self._reap(block=True)
        self._reported = True
        state, report = self._state, self._report
        assert report is not None
        return ServiceReport(
            report=report,
            published=list(state.published.values()),
            checkpoints_written=state.checkpoints_written,
            checkpoint_bytes_last=self._checkpoint_bytes_last,
            checkpoint_seconds_total=self._checkpoint_seconds_total,
            checkpoint_writer_cpu_s=self._checkpoint_writer_cpu_s,
            checkpoint_writer_peak_rss_kb=self._checkpoint_writer_peak_rss_kb,
            resumed=self._resumed,
        )

    # --- startup -----------------------------------------------------------

    def _start(self) -> None:
        """Fill the state in; the merge goes last, because ``serve()``
        starts again until it is set."""
        feed, state = self.feed, self._state
        state.drive = ReconstructionDrive(
            self._passes, materialize=self.materialize
        )
        bootstrap = bootstrap_synchronization(
            feed.traces, clock_groups=feed.clock_groups()
        )
        state.bootstrap = bootstrap

        offsets = bootstrap.offsets_us
        # The batch shards, with record-less stand-ins for synchronized
        # radios: an engine must not read the feed's traces behind
        # ``next_record``'s back, and a cursor that starts empty retains
        # nothing it is handed later.  Quarantined radios go in as they
        # are: the coordinator reads their length once, here, and its
        # counters ride in every checkpoint.
        merge = UnifyStream(
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
        self._bind_feed(merge)
        state.merge = merge

    # --- the drive loop ----------------------------------------------------

    def _bind_feed(self, merge: UnifyStream) -> None:
        """Point every engine cursor of ``merge`` at the feed's records
        for its radio; the binding never enters a checkpoint."""
        next_record = self.feed.next_record
        for engine in merge.engines:
            for radio_id, cursor in engine.cursors.items():
                cursor.produce = partial(next_record, radio_id)

    def _loop(self, stop_after_records: Optional[int]) -> bool:
        """Step the coordinator a slice at a time until the feed drains;
        ``False`` if ``stop_after_records`` killed it first.

        Windows are sealed only when a step fed the drive.  After every
        step the merge's read count is checked against the kill, and
        then against the boundary: every ``checkpoint_every`` records
        read is one, the collection, then the checkpoint, if there is a
        path to write.  The writer in flight is polled after every step.
        A source that raised mid-step (a stalled uplink) left the
        coordinator resumable, so a second ``serve()`` re-enters here.
        """
        state = self._state
        merge, drive = state.merge, state.drive
        while not merge.finished:
            released = merge.step(SLICE)
            if released:
                for jframe in released:
                    drive.feed(jframe)
                self._publish(drive.seal_ready())
            if self._writer is not None:
                self._reap(block=False)
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
        """Capture this boundary's state and hand it to a writer: a
        forked child where ``os.fork`` exists, else the same writer
        inline.  One writer at a time, so the previous one is reaped
        first and the file records the published count plus one, which
        the live count reaches only when :meth:`_reap` publishes it."""
        assert self.checkpoint_path is not None
        self._reap(block=True)
        started = time.perf_counter()
        state = self._state
        state.checkpoints_written += 1
        try:
            self._writer = self._start_writer(state)
        finally:
            state.checkpoints_written -= 1
        self._checkpoint_seconds_total += time.perf_counter() - started

    def _pending(self, pid: int) -> Path:
        """The file writer ``pid`` fills: never shared with a writer an
        earlier, killed incarnation left running."""
        assert self.checkpoint_path is not None
        return self.checkpoint_path.with_name(
            f"{self.checkpoint_path.name}.{pid}.pending"
        )

    def _start_writer(self, state: CheckpointState) -> _Writer:
        if not (self._forking and hasattr(os, "fork")):
            pending = self._pending(os.getpid())
            return _Writer(pending, error=_write_pending(pending, state))
        forked_wall, forked_cpu = time.perf_counter(), time.process_time()
        read_end, write_end = os.pipe()
        try:
            pid = os.fork()
        except BaseException:
            os.close(read_end)
            os.close(write_end)
            raise
        if pid == 0:
            # The writer: encode, write, fsync, exit — never return into
            # the daemon.  It inherits ``serve()``'s paused collector,
            # so no collection walks (and so copies) the pages the
            # snapshot shares with the parent.
            status = 1
            try:
                os.close(read_end)
                error = _write_pending(self._pending(os.getpid()), state)
                os.write(write_end, error.encode()[:_ERROR_TEXT_MAX])
                status = 1 if error else 0
            finally:
                os._exit(status)
        os.close(write_end)
        return _Writer(
            self._pending(pid),
            pid=pid,
            errors_fd=read_end,
            forked_wall=forked_wall,
            forked_cpu=forked_cpu,
        )

    def _reap(self, block: bool) -> None:
        """Publish the writer in flight once it is done (waiting for it
        if ``block``): its pending file replaces ``checkpoint_path``,
        then the counters advance, so counter and file always agree.  A
        failed writer's pending file is removed, the previous checkpoint
        stays, and :class:`CheckpointError` carries its exception.

        A forked writer is worth its fork only if it ran beside the
        daemon.  If, while it lived, the daemon lost wall time (time it
        was not running: waiting for the writer, or for a CPU) of at
        least half the writer's CPU time, the two took turns on one CPU,
        and pickling inline costs less than the writer plus the pages
        the fork made both copy: this daemon's later checkpoints are
        written inline."""
        writer, path = self._writer, self.checkpoint_path
        if writer is None:
            return
        assert path is not None
        started = time.perf_counter()
        try:
            error = writer.error
            if writer.pid:
                pid, status, usage = os.wait4(
                    writer.pid, 0 if block else os.WNOHANG
                )
                if pid == 0:
                    return
                error = os.read(writer.errors_fd, _ERROR_TEXT_MAX).decode(
                    errors="replace"
                )
                os.close(writer.errors_fd)
                code = os.waitstatus_to_exitcode(status)
                if code and not error:
                    error = f"writer exited with status {code}"
                writer_cpu = usage.ru_utime + usage.ru_stime
                lost = (time.perf_counter() - writer.forked_wall) - (
                    time.process_time() - writer.forked_cpu
                )
                if lost >= writer_cpu / 2:
                    self._forking = False
                self._checkpoint_writer_cpu_s += writer_cpu
                self._checkpoint_writer_peak_rss_kb = max(
                    self._checkpoint_writer_peak_rss_kb, usage.ru_maxrss
                )
            self._writer = None
            ordinal = self._state.checkpoints_written + 1
            if error:
                writer.pending.unlink(missing_ok=True)
                raise CheckpointError(
                    f"{path}: checkpoint {ordinal} was not written ({error})"
                )
            size = writer.pending.stat().st_size
            os.replace(writer.pending, path)
            self._state.checkpoints_written = ordinal
            self._checkpoint_bytes_last = size
        finally:
            self._checkpoint_seconds_total += time.perf_counter() - started

    # --- completion --------------------------------------------------------

    def _finalize(self, started_clock: float) -> JigsawReport:
        state = self._state
        merge, drive = state.merge, state.drive
        flows = drive.finish_streams()
        # Everything has now been delivered to every hook and the
        # watermark reads +inf: seal whatever windows remain.
        self._publish(drive.seal_ready())

        return assemble_report(
            drive,
            state.bootstrap,
            merge.tracks,
            merge.stats,
            self.feed.traces,
            flows,
            started_clock,
        )


#: Re-exported for callers sizing window widths against the emission lag.
__all__ = [
    "DEFAULT_CHECKPOINT_EVERY",
    "EXCHANGE_REORDER_SLACK_US",
    "JigsawDaemon",
    "ServiceReport",
]
