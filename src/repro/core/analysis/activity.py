"""Network activity time series — Figure 8.

Figure 8(a): active clients and active APs per time bin — "an active
client [is] one that is communicating with an AP or is actively
establishing an association.  An active AP is one communicating with an
active client (an AP only sending out beacons, for example, would not be
active)."

Figure 8(b): traffic volume per bin, split into the paper's four
categories: Data, Management (management + control), Beacon, and ARP —
the latter two separated "because of their high prevalence".

Implemented as streaming passes (:class:`ActivityPass`,
:class:`BroadcastAirtimePass`); the byte/frame tallies fold immediately,
while per-bin *activity* — which depends on the trace-global client/AP
classification — accumulates compact per-bin candidate sets (bounded by
station pairs, not trace length) that are resolved once the
classification is final.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ...dot11.address import MacAddress
from ...dot11.frame import FrameType
from ...net.packets import ArpPacket, try_parse_packet
from ..passes import PassContext, PipelinePass
from .summary import StationTracker


@dataclass
class ActivityBin:
    """One time slot of the Figure 8 series."""

    start_us: int
    active_clients: Set[MacAddress] = field(default_factory=set)
    active_aps: Set[MacAddress] = field(default_factory=set)
    data_bytes: int = 0
    management_bytes: int = 0
    beacon_bytes: int = 0
    arp_bytes: int = 0
    data_frames: int = 0
    management_frames: int = 0
    beacon_frames: int = 0
    arp_frames: int = 0

    @property
    def n_active_clients(self) -> int:
        return len(self.active_clients)

    @property
    def n_active_aps(self) -> int:
        return len(self.active_aps)

    @property
    def total_bytes(self) -> int:
        return (
            self.data_bytes
            + self.management_bytes
            + self.beacon_bytes
            + self.arp_bytes
        )


@dataclass
class ActivityTimeline:
    bin_us: int
    bins: List[ActivityBin]

    def peak_clients(self) -> int:
        return max((b.n_active_clients for b in self.bins), default=0)

    def series(self, attribute: str) -> List[float]:
        return [getattr(b, attribute) for b in self.bins]

    def format_table(self, max_rows: int = 30) -> str:
        lines = [
            f"{'bin':>5} {'clients':>8} {'aps':>5} {'data B':>10} "
            f"{'mgmt B':>10} {'beacon B':>10} {'arp B':>8}"
        ]
        step = max(1, len(self.bins) // max_rows)
        for i in range(0, len(self.bins), step):
            b = self.bins[i]
            lines.append(
                f"{i:>5} {b.n_active_clients:>8} {b.n_active_aps:>5} "
                f"{b.data_bytes:>10,} {b.management_bytes:>10,} "
                f"{b.beacon_bytes:>10,} {b.arp_bytes:>8,}"
            )
        return "\n".join(lines)


def _is_arp(frame) -> bool:
    if frame.ftype is not FrameType.DATA or not frame.body:
        return False
    return isinstance(try_parse_packet(frame.body), ArpPacket)


class ActivityPass(PipelinePass):
    """Streaming Figure 8 timeline.

    ``bin_us`` defaults to the paper's one-minute granularity; compressed
    scenarios pass something smaller.
    """

    name = "activity"

    def __init__(
        self,
        duration_us: int,
        bin_us: int = 60_000_000,
        tracker: Optional[StationTracker] = None,
    ) -> None:
        self.bin_us = bin_us
        self._n_bins = max(1, (duration_us + bin_us - 1) // bin_us)
        self._bins = [
            ActivityBin(start_us=i * bin_us) for i in range(self._n_bins)
        ]
        self._tracker = tracker or StationTracker()
        # Activity depends on the final client/AP classification, so each
        # bin accumulates candidate tuples (bounded by distinct stations
        # and station pairs) that finish() resolves.
        self._client_candidates: List[Set[Tuple]] = [
            set() for _ in range(self._n_bins)
        ]
        self._data_pairs: List[Set[Tuple]] = [
            set() for _ in range(self._n_bins)
        ]

    def on_jframe(self, jframe) -> None:
        frame = jframe.frame
        if frame is None:
            return
        self._tracker.feed(jframe)
        index = min(max(jframe.timestamp_us, 0) // self.bin_us, self._n_bins - 1)
        slot = self._bins[index]
        size = jframe.frame_len

        if frame.ftype is FrameType.BEACON:
            slot.beacon_bytes += size
            slot.beacon_frames += 1
        elif _is_arp(frame):
            slot.arp_bytes += size
            slot.arp_frames += 1
        elif frame.ftype is FrameType.DATA:
            slot.data_bytes += size
            slot.data_frames += 1
        else:
            slot.management_bytes += size
            slot.management_frames += 1

        # Activity: client talking to an AP, or mid-association.
        sender = frame.addr2
        receiver = frame.addr1
        if frame.ftype in (
            FrameType.DATA,
            FrameType.ASSOC_REQUEST,
            FrameType.AUTH,
            FrameType.PROBE_REQUEST,
        ):
            self._client_candidates[index].add(
                (
                    sender,
                    frame.is_broadcast,
                    frame.ftype is FrameType.PROBE_REQUEST,
                )
            )
        if frame.ftype is FrameType.DATA:
            self._data_pairs[index].add((sender, receiver))

    def finish(self, context: PassContext) -> ActivityTimeline:
        clients, aps = self._tracker.finish()
        for slot, candidates, pairs in zip(
            self._bins, self._client_candidates, self._data_pairs
        ):
            for sender, is_broadcast, is_probe_req in candidates:
                if sender in clients and (not is_broadcast or is_probe_req):
                    slot.active_clients.add(sender)
            for sender, receiver in pairs:
                if sender in aps and receiver in clients:
                    slot.active_aps.add(sender)
                    slot.active_clients.add(receiver)
                elif sender in clients and receiver in aps:
                    slot.active_aps.add(receiver)
        return ActivityTimeline(bin_us=self.bin_us, bins=self._bins)


class BroadcastAirtimePass(PipelinePass):
    """Streaming per-channel broadcast airtime share (Section 7.1).

    Reproduces the claim that "broadcast traffic (primarily ARP and
    Beacons) regularly consumes 10% of the channel as seen by any given
    monitor" — broadcasts ride the lowest rate, so their airtime share
    far exceeds their byte share.
    """

    name = "broadcast_airtime"

    def __init__(self, duration_us: int) -> None:
        self.duration_us = duration_us
        self._by_channel: Dict[int, int] = {}

    def on_jframe(self, jframe) -> None:
        frame = jframe.frame
        if frame is None or not frame.is_broadcast:
            return
        self._by_channel[jframe.channel] = (
            self._by_channel.get(jframe.channel, 0) + jframe.duration_us
        )

    def finish(self, context: PassContext) -> Dict[int, float]:
        return {
            channel: airtime / self.duration_us
            for channel, airtime in sorted(self._by_channel.items())
        }
