"""The full Jigsaw pipeline: traces in, multi-layer reconstruction out.

One call wires together everything Sections 4 and 5 describe::

    pipeline = JigsawPipeline()
    report = pipeline.run(radio_traces, clock_groups=groups)

``report`` then feeds the Section 6/7 analyses (coverage, interference,
protection mode, TCP loss) in :mod:`repro.core.analysis`.

Execution is *one-pass pipelined*: the unifier's jframe stream feeds the
attempt assembler incrementally, sealed attempts feed the exchange FSM,
and closed exchanges feed the flow collector — all four reconstruction
layers advance together over a single traversal of the merged timeline
instead of running as full-list barrier phases.

Analyses tap that same traversal through the **pass API**
(:mod:`repro.core.passes`)::

    from repro.core.analysis import ActivityPass, SummaryPass

    report = pipeline.run(
        traces,
        clock_groups=groups,
        passes=[ActivityPass(duration_us, bin_us), SummaryPass(duration_us)],
    )
    timeline = report.passes["activity"]

Each registered :class:`~repro.core.passes.PipelinePass` receives every
jframe/attempt/exchange/flow as the loop produces it and surrenders its
result into ``report.passes``.  Report materialization itself is just the
built-in :class:`~repro.core.passes.MaterializePass`; disable it with
``materialize=False`` and the report carries statistics, flows and pass
results but empty per-layer lists.  That bounds the report, not the
input: a file-backed trace keeps every record it decoded until the run
ends (:class:`~repro.core.analysis.SummaryPass` counts them), so a
file-backed run's memory grows with its records.

The bootstrap prepass
(:func:`~repro.core.sync.bootstrap.bootstrap_synchronization`) is fused
with ingest: each trace's records are consumed exactly once for the
examination window — widening rounds feed only the delta — and
file-backed streaming inputs decode just that prefix before unification
replays the buffered read.  Every trace is read once per run, not twice.

A batch run pauses automatic cyclic garbage collection, for the whole
process, from its first line to its report: it makes no reference
cycles, and every collection it set off would re-walk its decoded
records (tuple subclasses, never untracked) for nothing.  The caller's
collector state comes back on every exit.  The service daemon's
``serve()`` uses the same pause and, because it runs unbounded over a
feed it does not own, collects at its checkpoint boundaries instead.
"""

from __future__ import annotations

import gc
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence

from ..jtrace.io import RadioTrace
from .faults import HealthReport
from .link.attempt import AttemptAssembler, AttemptStats, TransmissionAttempt
from .link.exchange import ExchangeAssembler, ExchangeStats, FrameExchange
from .passes import (
    MaterializePass,
    PassContext,
    PipelinePass,
    SealedWindow,
    check_pass_names,
)
from .sync.bootstrap import BootstrapResult, bootstrap_synchronization
from .sync.skew import ClockTrack
from .transport.flows import FlowCollector, TcpFlow
from .transport.inference import InferenceStats, TransportInference
from .unify.jframe import JFrame
from .unify.unifier import UnificationResult, Unifier, UnifyStats


@dataclass
class JigsawReport:
    """Everything the pipeline reconstructed, plus per-stage statistics.

    ``passes`` holds the result of every analysis pass registered on the
    run, keyed by pass name.  ``materialized`` records whether the
    per-layer lists were retained; a ``materialize=False`` report carries
    empty ``jframes``/``attempts``/``exchanges`` (flows — bounded by
    connection count, and required by transport inference — are always
    kept).
    """

    bootstrap: BootstrapResult
    unification: UnificationResult
    attempts: List[TransmissionAttempt]
    attempt_stats: AttemptStats
    exchanges: List[FrameExchange]
    exchange_stats: ExchangeStats
    flows: List[TcpFlow]
    transport_stats: InferenceStats
    elapsed_seconds: float
    passes: Dict[str, Any] = field(default_factory=dict)
    materialized: bool = True
    #: Run-level degradation ledger: ingest decode damage and quarantined
    #: radios.  ``health.degraded`` is False exactly when the run saw
    #: pristine inputs.
    health: HealthReport = field(default_factory=HealthReport)

    @property
    def jframes(self) -> List[JFrame]:
        return self.unification.jframes

    @property
    def tracks(self) -> Dict[int, ClockTrack]:
        return self.unification.tracks

    def pass_result(self, name: str) -> Any:
        """The result of a registered analysis pass, by name."""
        try:
            return self.passes[name]
        except KeyError:
            raise KeyError(
                f"no pass named {name!r} ran on this report "
                f"(available: {sorted(self.passes)})"
            ) from None

    def completed_flows(self) -> List[TcpFlow]:
        """Flows with a completed handshake (Section 7.4's population)."""
        return [flow for flow in self.flows if flow.handshake_complete]

    def summary(self) -> str:
        """A Table 1-style textual digest."""
        stats = self.unification.stats
        lines = [
            f"records in:            {stats.records_in:,}",
            f"jframes:               {stats.jframes:,}",
            f"events per jframe:     {stats.events_per_jframe:.2f}",
            f"valid jframes:         {stats.valid_jframes:,}",
            f"error jframes:         {stats.corrupt_jframes + stats.phy_error_jframes:,}",
            f"transmission attempts: {self.attempt_stats.attempts:,}",
            f"frame exchanges:       {self.exchange_stats.exchanges:,}",
            f"tcp flows:             {len(self.flows):,}",
            f"completed handshakes:  {self.transport_stats.handshakes_completed:,}",
            f"pipeline time:         {self.elapsed_seconds:.2f}s",
        ]
        if self.health.degraded:
            lines.append(f"degraded:              {self.health.summary()}")
        return "\n".join(lines)


class ReconstructionDrive:
    """The downstream half of the one-pass loop, as one object.

    Feeds each unified jframe through attempt grouping, the exchange
    FSM, flow binning and every registered pass — exactly the traversal
    ``JigsawPipeline.run`` always performed inline.  Pulling it into an
    object serves two callers:

    * the batch pipeline drives it to exhaustion over a finite merge
      stream and then calls :meth:`finish_streams`;
    * the service daemon (:mod:`repro.service`) drives it incrementally
      forever, reads :attr:`watermark_us` to seal windowed pass output
      mid-stream, and pickles the whole drive — assemblers, collector,
      pass accumulators — into its periodic checkpoints by default
      pickling (every piece of held state serializes as it is).

    Hook delivery order is part of the cross-mode bit-identity contract
    and is unchanged: jframe hooks fire before the jframe's attempts,
    attempt hooks before the exchanges they close, exchange hooks in
    ``start_us`` order, flow hooks after transport inference.
    """

    def __init__(
        self,
        passes: Sequence[PipelinePass] = (),
        materialize: bool = True,
    ) -> None:
        check_pass_names(passes)
        self.passes: List[PipelinePass] = list(passes)
        self.materializer = MaterializePass() if materialize else None
        self._active: List[PipelinePass] = list(self.passes)
        if self.materializer is not None:
            self._active.append(self.materializer)
        self.attempt_assembler = AttemptAssembler()
        self.exchange_assembler = ExchangeAssembler()
        self.flow_collector = FlowCollector()
        self.transport_stats: Optional[InferenceStats] = None

    @property
    def watermark_us(self) -> float:
        """Conservative downstream watermark (the exchange bound).

        Every jframe, attempt and exchange at or before this timestamp
        has been delivered to every hook, so windowed pass output up to
        here is final.
        """
        return self.exchange_assembler.watermark_us

    def feed(self, jframe: JFrame) -> None:
        """Push one merged jframe through every downstream layer."""
        for p in self._active:
            p.on_jframe(jframe)
        self._advance(self.attempt_assembler.feed(jframe))

    def _advance(self, new_attempts: List[TransmissionAttempt]) -> None:
        for attempt in new_attempts:
            for p in self._active:
                p.on_attempt(attempt)
            # The exchange assembler's reorder buffer emits in
            # start_us order, so no end-of-run sort barrier is needed.
            for exchange in self.exchange_assembler.feed(attempt):
                for p in self._active:
                    p.on_exchange(exchange)
                self.flow_collector.feed(exchange)

    def seal_ready(self) -> List[SealedWindow]:
        """Collect freshly sealed windows from every registered pass."""
        watermark = self.watermark_us
        sealed: List[SealedWindow] = []
        for p in self.passes:
            sealed.extend(p.seal_ready(watermark))
        return sealed

    def finish_streams(self) -> List[TcpFlow]:
        """Flush the assemblers, run transport inference, fire flow hooks.

        Returns the reconstructed flows; per-layer statistics stay
        readable on the assemblers and :attr:`transport_stats`.  An
        unmaterialized drive then severs the flows' exchange
        back-references: nothing else holds those exchanges.
        """
        self._advance(self.attempt_assembler.finish())
        for exchange in self.exchange_assembler.finish():
            for p in self._active:
                p.on_exchange(exchange)
            self.flow_collector.feed(exchange)
        flows = self.flow_collector.finish()
        transport = TransportInference()
        self.transport_stats = transport.run(flows)
        for flow in flows:
            for p in self._active:
                p.on_flow(flow)
        if self.materializer is None:
            # Inference and the on_flow hooks have consumed the exchange
            # back-references; severing them lets the data jframes go the
            # way of the rest of the unmaterialized timeline.
            for flow in flows:
                flow.trim_exchange_refs()
        return flows


def assemble_report(
    drive: ReconstructionDrive,
    bootstrap: BootstrapResult,
    tracks: Dict[int, ClockTrack],
    stats: UnifyStats,
    traces: Sequence[RadioTrace],
    flows: List[TcpFlow],
    started: float,
) -> JigsawReport:
    """Close a finished drive into its report (batch and daemon alike).

    Call after :meth:`ReconstructionDrive.finish_streams`: builds the
    health ledger (``bootstrap`` itself for sync, and the traces'
    ingest damage counters — a trace reading a file fills its
    ``decode_health`` only as the merge drains it), hands every pass
    the run context, and collects the results.  ``started`` is the
    ``time.perf_counter()`` reading the run began at.
    """
    health = HealthReport(sync=bootstrap)
    for trace in traces:
        health.ingest.merge(trace.decode_health)

    context = PassContext(
        bootstrap=bootstrap,
        tracks=tracks,
        unify_stats=stats,
        attempt_stats=drive.attempt_assembler.stats,
        exchange_stats=drive.exchange_assembler.stats,
        transport_stats=drive.transport_stats,
        traces=traces,
        n_flows=len(flows),
    )
    results = {p.name: p.finish(context) for p in drive.passes}
    materializer = drive.materializer
    if materializer is not None:
        materializer.finish(context)
    return JigsawReport(
        bootstrap=bootstrap,
        unification=UnificationResult(
            jframes=materializer.jframes if materializer is not None else [],
            tracks=tracks,
            stats=stats,
        ),
        attempts=materializer.attempts if materializer is not None else [],
        attempt_stats=drive.attempt_assembler.stats,
        exchanges=materializer.exchanges if materializer is not None else [],
        exchange_stats=drive.exchange_assembler.stats,
        flows=flows,
        transport_stats=drive.transport_stats,
        elapsed_seconds=time.perf_counter() - started,
        passes=results,
        materialized=materializer is not None,
        health=health,
    )


@contextmanager
def _collection_paused() -> Iterator[None]:
    """Pause automatic cyclic collection; restore the caller's state.

    Only ``gc.isenabled()`` changes, and only for the duration: no
    freeze, no threshold, no closing collection.  The allocation counts
    carry over to the caller's next automatic collection.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class JigsawPipeline:
    """traces -> bootstrap -> unify -> link -> transport (+ passes)."""

    def __init__(self, unifier: Optional[Unifier] = None) -> None:
        self.unifier = unifier or Unifier()

    def run(
        self,
        traces: Sequence[RadioTrace],
        clock_groups: Sequence[Sequence[int]] = (),
        bootstrap: Optional[BootstrapResult] = None,
        passes: Sequence[PipelinePass] = (),
        materialize: bool = True,
    ) -> JigsawReport:
        """Run the full reconstruction.

        ``clock_groups`` is the infrastructure metadata (radios sharing a
        capture clock) used for cross-channel bridging; pass a precomputed
        ``bootstrap`` — an earlier run's, or one
        :func:`~repro.core.sync.bootstrap.bootstrap_synchronization`
        computed with non-default settings — to skip that phase.
        Otherwise the prepass runs with single-read ingest: each trace's
        records are consumed exactly once for the bootstrap window
        (widening rounds feed only the delta), and a trace reading a
        source decodes just that prefix before unification replays the
        buffer — no second read of the trace.

        ``passes`` are :class:`~repro.core.passes.PipelinePass` instances
        driven inside the one-pass loop; each result lands in
        ``report.passes[pass.name]``.  ``materialize=False`` drops the
        built-in materialization pass, so the report keeps no jframes,
        attempts or exchanges; such a report's flows also drop their
        observation -> exchange back-references once transport inference
        has folded its verdicts into them, so they stop retaining the
        data-subset jframe graph.  The input is not bounded: each trace
        keeps every record it holds or decoded until the run ends.

        While a run is in progress, automatic cyclic garbage collection
        is paused for the whole process (the library is single-threaded).
        A run makes no reference cycles, so a collection would only
        re-walk the run's own records — each a tuple subclass, which the
        collector never untracks — and free nothing.  Every exit,
        including an exception, hands back the collector state the
        caller had: enabled only if it was enabled before.
        """
        started = time.perf_counter()
        with _collection_paused():
            check_pass_names(passes)
            # ``sorted_by_local_time`` returns the trace itself when
            # records are already ordered (the common case), so this
            # copies no record list; a trace still reading its source
            # validates order as it is read and returns itself without
            # draining.
            ordered = [trace.sorted_by_local_time() for trace in traces]
            if bootstrap is None:
                bootstrap = bootstrap_synchronization(
                    ordered, clock_groups=clock_groups
                )

            # One pass: jframes stream out of the merge and straight
            # through attempt grouping, the exchange FSM, flow binning and
            # every registered analysis pass (the drive — shared verbatim
            # with the service daemon's incremental loop).
            stream = self.unifier.stream_unify(ordered, bootstrap)
            drive = ReconstructionDrive(passes, materialize=materialize)
            for jframe in stream:
                drive.feed(jframe)
            flows = drive.finish_streams()

            return assemble_report(
                drive,
                bootstrap,
                stream.tracks,
                stream.stats,
                ordered,
                flows,
                started,
            )
