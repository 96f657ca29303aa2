"""Trace summary — Table 1.

"Table 1 presents the characteristics of the trace we use for our
analyses" : duration, monitors, APs, clients, raw event counts, the error
share, jframe counts and the events-per-jframe ratio.

The analysis is :class:`SummaryPass`, a streaming
:class:`~repro.core.passes.PipelinePass`.  :class:`StationTracker` — the
incremental behavioural client/AP classifier — is shared by the
activity, protection and interference passes; :func:`identify_stations`
runs it over a materialized report's jframes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

from ...dot11.address import MacAddress
from ...dot11.frame import FrameType
from ..passes import PassContext, PipelinePass
from ..pipeline import JigsawReport


@dataclass
class TraceSummary:
    """The Table 1 row set."""

    duration_s: float
    n_radios: int
    total_events: int
    error_events: int
    jframes: int
    events_per_jframe: float
    unique_clients: int
    unique_aps: int
    transmission_attempts: int
    frame_exchanges: int
    tcp_flows: int
    completed_handshakes: int

    @property
    def error_event_fraction(self) -> float:
        if self.total_events == 0:
            return 0.0
        return self.error_events / self.total_events

    def rows(self) -> List[Tuple[str, str]]:
        """(label, value) pairs, Table 1 style."""
        return [
            ("Trace duration (s)", f"{self.duration_s:.1f}"),
            ("Monitor radios", f"{self.n_radios}"),
            ("Raw events", f"{self.total_events:,}"),
            ("Error events (PHY/CRC)", f"{self.error_events:,} "
             f"({100 * self.error_event_fraction:.1f}%)"),
            ("Unified jframes", f"{self.jframes:,}"),
            ("Events per jframe", f"{self.events_per_jframe:.2f}"),
            ("Unique client MACs", f"{self.unique_clients}"),
            ("Unique AP MACs", f"{self.unique_aps}"),
            ("Transmission attempts", f"{self.transmission_attempts:,}"),
            ("Frame exchanges", f"{self.frame_exchanges:,}"),
            ("TCP flows", f"{self.tcp_flows:,}"),
            ("Completed handshakes", f"{self.completed_handshakes:,}"),
        ]

    def format_table(self) -> str:
        width = max(len(label) for label, _ in self.rows())
        return "\n".join(
            f"{label:<{width}}  {value}" for label, value in self.rows()
        )


class StationTracker:
    """Incremental behavioural (clients, aps) classification.

    APs reveal themselves by sending beacons/probe responses; clients by
    sending probe/association requests or ToDS data.  This is how a
    passive observer classifies stations — no configuration knowledge
    needed.  Feed jframes as they stream; :meth:`finish` resolves the
    client/AP overlap exactly like the batch classifier (a station that
    ever behaved like an AP is not a client).

    One tracker instance can be shared by several passes registered on
    the same run (each pass accepts ``tracker=``): ``feed`` remembers the
    last jframe by identity, so the classification work is done once per
    jframe no matter how many passes forward it.
    """

    __slots__ = ("_aps", "_clients", "_last")

    def __init__(self) -> None:
        self._aps: Set[MacAddress] = set()
        self._clients: Set[MacAddress] = set()
        self._last = None

    def feed(self, jframe) -> None:
        if jframe is self._last:
            return
        self._last = jframe
        frame = jframe.frame
        if frame is None or frame.addr2 is None:
            return
        ftype = frame.ftype
        if ftype in (FrameType.BEACON, FrameType.PROBE_RESPONSE,
                     FrameType.ASSOC_RESPONSE):
            self._aps.add(frame.addr2)
        elif ftype in (FrameType.PROBE_REQUEST, FrameType.ASSOC_REQUEST,
                       FrameType.AUTH):
            self._clients.add(frame.addr2)
        elif ftype is FrameType.DATA:
            if frame.to_ds:
                self._clients.add(frame.addr2)
            elif frame.from_ds:
                self._aps.add(frame.addr2)

    def finish(self) -> Tuple[Set[MacAddress], Set[MacAddress]]:
        """(clients, aps) — snapshots, safe to keep after more feeding."""
        return self._clients - self._aps, set(self._aps)


class SummaryPass(PipelinePass):
    """Streaming Table 1 summary."""

    name = "summary"

    def __init__(
        self, duration_us: int, tracker: Optional[StationTracker] = None
    ) -> None:
        self.duration_us = duration_us
        self._tracker = tracker or StationTracker()

    def on_jframe(self, jframe) -> None:
        self._tracker.feed(jframe)

    def finish(self, context: PassContext) -> TraceSummary:
        clients, aps = self._tracker.finish()
        stats = context.unify_stats
        return TraceSummary(
            duration_s=self.duration_us / 1e6,
            n_radios=context.n_radios,
            total_events=stats.records_in,
            error_events=stats.records_in - context.valid_records,
            jframes=stats.jframes,
            events_per_jframe=stats.events_per_jframe,
            unique_clients=len(clients),
            unique_aps=len(aps),
            transmission_attempts=context.attempt_stats.attempts,
            frame_exchanges=context.exchange_stats.exchanges,
            tcp_flows=context.n_flows,
            completed_handshakes=context.transport_stats.handshakes_completed,
        )


def identify_stations(report: JigsawReport) -> Tuple[Set[MacAddress], Set[MacAddress]]:
    """Split observed transmitters into (clients, aps) from behaviour."""
    tracker = StationTracker()
    for jframe in report.jframes:
        tracker.feed(jframe)
    return tracker.finish()
