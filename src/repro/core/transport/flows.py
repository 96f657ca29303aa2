"""TCP flow reconstruction from frame exchanges (Section 5.2).

"Our transport-layer analysis takes frame exchanges as input and
reconstructs individual TCP flows based on the network and transport
headers."  Each data-bearing exchange whose payload parses as a TCP segment
becomes a :class:`SegmentObservation` attached to the flow identified by
its canonical 4-tuple; the per-flow analyses (handshake detection, the
ACK-coverage oracle, loss classification, RTT estimation) live in
:mod:`repro.core.transport.inference`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ...net.packets import IpPacket, TcpSegment, try_parse_packet
from ..link.exchange import FrameExchange


@dataclass(frozen=True)
class FlowKey:
    """Canonical bidirectional TCP 4-tuple (the lower endpoint first)."""

    ip_a: int
    port_a: int
    ip_b: int
    port_b: int

    @classmethod
    def from_packet(cls, packet: IpPacket, seg: TcpSegment) -> Tuple["FlowKey", bool]:
        """The flow key plus whether this packet travels a -> b."""
        src = (packet.src, seg.sport)
        dst = (packet.dst, seg.dport)
        if src <= dst:
            return cls(src[0], src[1], dst[0], dst[1]), True
        return cls(dst[0], dst[1], src[0], src[1]), False

    def __str__(self) -> str:
        from ...net.packets import format_ip

        return (
            f"{format_ip(self.ip_a)}:{self.port_a} <-> "
            f"{format_ip(self.ip_b)}:{self.port_b}"
        )


@dataclass
class SegmentObservation:
    """One TCP segment as seen on the air (one frame exchange).

    ``exchange`` back-references the frame exchange that carried the
    segment — and, through it, the data jframe and every capture
    instance.  Transport inference reads (and upgrades) it; afterwards a
    bounded-memory pipeline run severs the reference
    (:meth:`TcpFlow.trim_exchange_refs`) so long-lived flow objects stop
    retaining the data-subset jframe graph.  ``None`` therefore means
    "trimmed", not "unknown".
    """

    time_us: int
    exchange: Optional[FrameExchange]
    packet: IpPacket
    seg: TcpSegment
    from_a: bool            # direction within the canonical flow
    to_wireless: bool       # True when the frame went AP -> client (FromDS)

    @property
    def is_data(self) -> bool:
        return self.seg.payload_len > 0

    @property
    def seq_end(self) -> int:
        return self.seg.seq_end


@dataclass
class TcpFlow:
    """One reconstructed TCP connection."""

    key: FlowKey
    observations: List[SegmentObservation] = field(default_factory=list)
    # Filled by inference:
    handshake_complete: bool = False
    syn_time_us: Optional[int] = None
    synack_time_us: Optional[int] = None
    established_time_us: Optional[int] = None
    loss_events: list = field(default_factory=list)
    inferred_hidden_segments: int = 0
    rtt_samples_us: List[float] = field(default_factory=list)

    @property
    def n_segments(self) -> int:
        return len(self.observations)

    @property
    def data_observations(self) -> List[SegmentObservation]:
        return [obs for obs in self.observations if obs.is_data]

    @property
    def data_bytes_observed(self) -> int:
        return sum(obs.seg.payload_len for obs in self.data_observations)

    @property
    def median_rtt_us(self) -> Optional[float]:
        if not self.rtt_samples_us:
            return None
        ordered = sorted(self.rtt_samples_us)
        return ordered[len(ordered) // 2]

    def trim_exchange_refs(self) -> None:
        """Sever observation -> exchange back-references.

        A flow outlives the streaming pipeline's per-layer objects, and
        each observation's exchange pins its data jframe (and all capture
        instances) in memory — the remaining O(data-subset) term of a
        ``materialize=False`` run.  Transport inference has already
        folded everything it needs from the exchanges into the flow
        (delivery verdicts, loss events, RTT samples), so bounded-memory
        runs call this once inference is done.
        """
        for obs in self.observations:
            obs.exchange = None


class FlowCollector:
    """Incremental flow binning: feed exchanges, finish into sorted flows.

    Input order does not matter — :meth:`finish` time-sorts every flow's
    observations — so the one-pass pipeline can feed exchanges in closure
    order straight off the assembler FSM.
    """

    def __init__(self) -> None:
        self._flows: Dict[FlowKey, TcpFlow] = {}

    def feed(self, exchange: FrameExchange) -> None:
        """Bin one exchange's TCP segment (if it carries one)."""
        jframe = exchange.data_jframe
        if jframe is None or jframe.frame is None:
            return
        frame = jframe.frame
        if not frame.ftype.is_data or not frame.body:
            return
        packet = try_parse_packet(frame.body)
        if not isinstance(packet, IpPacket) or not isinstance(
            packet.payload, TcpSegment
        ):
            return
        seg = packet.payload
        key, from_a = FlowKey.from_packet(packet, seg)
        flow = self._flows.setdefault(key, TcpFlow(key=key))
        flow.observations.append(
            SegmentObservation(
                time_us=exchange.start_us,
                exchange=exchange,
                packet=packet,
                seg=seg,
                from_a=from_a,
                to_wireless=frame.from_ds,
            )
        )

    def finish(self) -> List[TcpFlow]:
        """Time-order every flow and return them by first observation."""
        flows = self._flows
        for flow in flows.values():
            flow.observations.sort(key=lambda obs: obs.time_us)
        return sorted(flows.values(), key=lambda f: f.observations[0].time_us)

