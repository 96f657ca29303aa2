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

Batch and daemon differ only in record source, checkpoint cadence and
window sealing.

The feed protocol: ``next_record(radio_id) -> Optional[TraceRecord]``
(``None`` = end of that radio's stream), plus ``traces`` /
``clock_groups()`` for the bootstrap prepass and ``consumed()`` /
``seek()`` for checkpoint alignment.
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
from ..core.pipeline import JigsawReport, ReconstructionDrive, assemble_report
from ..core.sync.bootstrap import bootstrap_synchronization
from ..core.unify.unifier import Unifier, UnifyStream, partition_traces
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


#: Bytes of a failed writer's exception text its pipe carries: one
#: atomic pipe write, so the writer never blocks on an unread pipe.
_ERROR_TEXT_MAX = 4096


class _Killed(Exception):
    """``stop_after_records`` reached: unwinds the drive loop mid-slice."""


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

    A forked writer has its ``pid`` and the read end of the pipe its
    exception text comes back on; an inline one (``pid`` 0) has already
    run and holds its outcome in ``error``.
    """

    pending: Path
    pid: int = 0
    errors_fd: int = -1
    error: str = ""


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
        self._state = CheckpointState(
            consumed={}, total_consumed=0, merge=None, drive=None,
            bootstrap=None,
        )
        self._resumed = False
        self._reported = False
        self._stop_after_records: Optional[int] = None
        self._last_checkpoint_at = 0
        self._checkpoint_bytes_last = 0
        self._checkpoint_seconds_total = 0.0
        self._checkpoint_writer_cpu_s = 0.0
        self._checkpoint_writer_peak_rss_kb = 0
        self._writer: Optional[_Writer] = None

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
        is ``seek``-ed to the checkpoint's consumed counts so the next
        ``next_record`` returns the first record the crashed daemon
        never consumed.  Passes and the materialize choice are the
        crashed daemon's own, carried by the checkpointed drive.
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
        daemon._state = state
        daemon._bind_feed()
        daemon._last_checkpoint_at = state.total_consumed
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

        Every return — report, simulated kill or a raising source —
        first waits for the checkpoint writer in flight and publishes
        it, so the file on disk is the last boundary's checkpoint.  A
        writer that failed raises :class:`CheckpointError` there.

        A daemon reports once: ``serve()`` after the report was returned
        raises :class:`RuntimeError` and changes nothing.
        """
        if self._reported:
            raise RuntimeError(
                "this daemon has already returned its report; restore a "
                "new one from its checkpoint to serve again"
            )
        started_clock = time.perf_counter()
        if self._state.merge is None:
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
        state.merge = UnifyStream(
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

    # --- the drive loop ----------------------------------------------------

    def _bind_feed(self) -> None:
        """Point every engine cursor at the feed: at first start, and on
        restore — feed-bound callables never enter a checkpoint."""
        for engine in self._state.merge.engines:
            for radio_id, cursor in engine.cursors.items():
                cursor.produce = partial(self._next_record, radio_id)

    def _next_record(self, radio_id: int, index: int) -> Optional[TraceRecord]:
        """A cursor's ``produce``: the feed's next record for the radio
        (the feed keeps each radio's position, so ``index`` goes unused)."""
        record = self.feed.next_record(radio_id)
        if record is not None:
            state = self._state
            state.total_consumed += 1
            if (
                self._stop_after_records is not None
                and state.total_consumed >= self._stop_after_records
            ):
                raise _Killed  # simulated SIGKILL: stop mid-slice
        return record

    def _loop(self) -> None:
        """Step the coordinator a slice at a time until the feed drains.

        Windows are sealed only when a step fed the drive.  A source
        that raised mid-step (a stalled uplink) left the coordinator
        resumable, so a second ``serve()`` re-enters here.
        """
        state = self._state
        merge, drive = state.merge, state.drive
        try:
            while not merge.finished:
                released = merge.step(SLICE)
                if released:
                    for jframe in released:
                        drive.feed(jframe)
                    self._publish(drive.seal_ready())
                if self._writer is not None:
                    self._reap(block=False)
                if (
                    self.checkpoint_path is not None
                    and state.total_consumed - self._last_checkpoint_at
                    >= self.checkpoint_every
                ):
                    self._write_checkpoint()
        finally:
            self._reap(block=True)

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
        state.consumed = self.feed.consumed()
        self._last_checkpoint_at = state.total_consumed
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
        if not hasattr(os, "fork"):
            pending = self._pending(os.getpid())
            return _Writer(pending, error=_write_pending(pending, state))
        read_end, write_end = os.pipe()
        try:
            pid = os.fork()
        except BaseException:
            os.close(read_end)
            os.close(write_end)
            raise
        if pid == 0:
            # The writer: encode, write, fsync, exit — never return into
            # the daemon.  A collection here would walk (and so copy)
            # every page the snapshot shares with the parent.
            status = 1
            try:
                gc.disable()
                os.close(read_end)
                error = _write_pending(self._pending(os.getpid()), state)
                os.write(write_end, error.encode()[:_ERROR_TEXT_MAX])
                status = 1 if error else 0
            finally:
                os._exit(status)
        os.close(write_end)
        return _Writer(self._pending(pid), pid=pid, errors_fd=read_end)

    def _reap(self, block: bool) -> None:
        """Publish the writer in flight once it is done (waiting for it
        if ``block``): its pending file replaces ``checkpoint_path``,
        then the counters advance, so counter and file always agree.  A
        failed writer's pending file is removed, the previous checkpoint
        stays, and :class:`CheckpointError` carries its exception."""
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
                self._checkpoint_writer_cpu_s += usage.ru_utime + usage.ru_stime
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

    def _finalize(self, started_clock: float) -> ServiceReport:
        state = self._state
        merge, drive = state.merge, state.drive
        flows = drive.finish_streams()
        # Everything has now been delivered to every hook and the
        # watermark reads +inf: seal whatever windows remain.
        self._publish(drive.seal_ready())

        report = assemble_report(
            drive,
            state.bootstrap,
            merge.tracks,
            merge.stats,
            self.feed.traces,
            flows,
            started_clock,
        )
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


#: Re-exported for callers sizing window widths against the emission lag.
__all__ = [
    "DEFAULT_CHECKPOINT_EVERY",
    "EXCHANGE_REORDER_SLACK_US",
    "JigsawDaemon",
    "ServiceReport",
]
