"""802.11g protection-mode analysis — Section 7.3, Figure 10.

Finds *overprotective* APs: "APs using protection mode that unnecessarily
impacts 802.11g clients".  The method is the paper's:

* "We can identify the set of APs using protection mode based upon
  CTS-to-self client transmissions to those APs" (and the APs' own
  CTS-to-self frames);
* "Using observed probe responses, we infer whether any 802.11b clients
  are in range of an AP using protection mode";
* an AP is overprotective in a time slot when it protects although no
  802.11b client has been in range within a *practical* timeout (one
  minute, versus the production policy's hour).

:class:`ProtectionPass` streams the analysis off the pipeline's jframe
feed.  Every decision that depends on trace-global knowledge — the
client/AP split, the 802.11b classification, the final client->AP
association map — is deferred: the pass accumulates compact event tuples
(CTS targets, probe responses, per-bin data pairs) and resolves them in
``finish`` exactly the way the batch two-walk implementation did, so the
results are identical by construction.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ...dot11.address import MacAddress
from ...dot11.frame import FrameType, frame_marks_cck_only
from ..passes import PassContext, PipelinePass
from .summary import StationTracker


@dataclass
class ProtectionBin:
    """One time slot of the Figure 10 series."""

    start_us: int
    protecting_aps: Set[MacAddress] = field(default_factory=set)
    overprotective_aps: Set[MacAddress] = field(default_factory=set)
    active_g_clients: Set[MacAddress] = field(default_factory=set)
    g_clients_on_overprotective: Set[MacAddress] = field(default_factory=set)

    @property
    def n_overprotective(self) -> int:
        return len(self.overprotective_aps)

    @property
    def n_active_g_clients(self) -> int:
        return len(self.active_g_clients)

    @property
    def n_affected_g_clients(self) -> int:
        return len(self.g_clients_on_overprotective)


@dataclass
class ProtectionResult:
    bins: List[ProtectionBin]
    bin_us: int
    b_clients: Set[MacAddress]
    g_clients: Set[MacAddress]

    def peak_affected_fraction(self) -> float:
        """Largest per-bin share of 11g clients on overprotective APs
        (the paper sees 25-50% during busy periods)."""
        best = 0.0
        for b in self.bins:
            if b.n_active_g_clients:
                best = max(
                    best, b.n_affected_g_clients / b.n_active_g_clients
                )
        return best

    def total_overprotective_aps(self) -> int:
        aps: Set[MacAddress] = set()
        for b in self.bins:
            aps.update(b.overprotective_aps)
        return len(aps)

    def format_table(self, max_rows: int = 24) -> str:
        lines = [
            f"{'bin':>4} {'protecting':>11} {'overprot.':>10} "
            f"{'g-active':>9} {'g-affected':>11}"
        ]
        step = max(1, len(self.bins) // max_rows)
        for i in range(0, len(self.bins), step):
            b = self.bins[i]
            lines.append(
                f"{i:>4} {len(b.protecting_aps):>11} {b.n_overprotective:>10} "
                f"{b.n_active_g_clients:>9} {b.n_affected_g_clients:>11}"
            )
        lines.append(
            f"peak affected-fraction: {self.peak_affected_fraction():.2f} "
            f"(paper: 0.25-0.50 busy periods)"
        )
        return "\n".join(lines)


class ProtectionPass(PipelinePass):
    """Streaming Figure 10 analysis.

    ``practical_timeout_us`` is the paper's "more practical timeout of one
    minute"; compressed scenarios scale it with their bin size.

    Memory note: because overprotectiveness at time ``t`` depends on the
    trace-*global* client/AP/11b classification, CTS and probe-response
    events are kept until ``finish`` — so this pass's accumulator scales
    with the count of those two sparse frame classes (a small fraction of
    a real trace; the batch implementation buffered the same events),
    while DATA-frame activity is compacted to per-bin station-pair sets.
    """

    name = "protection"

    def __init__(
        self,
        duration_us: int,
        bin_us: int = 60_000_000,
        practical_timeout_us: int = 60_000_000,
        tracker: Optional[StationTracker] = None,
    ) -> None:
        self.duration_us = duration_us
        self.bin_us = bin_us
        self.practical_timeout_us = practical_timeout_us
        self._tracker = tracker or StationTracker()
        self._b_clients: Set[MacAddress] = set()
        # Association candidates, resolved in finish(): association
        # requests apply unconditionally, ToDS data only when the sender
        # classifies as a client — and "last event wins", so each keeps
        # its feed-order sequence number.
        self._seq = 0
        self._assoc_req: Dict[MacAddress, Tuple[int, MacAddress]] = {}
        self._assoc_data: Dict[MacAddress, Tuple[int, MacAddress]] = {}
        # Raw loop-2 events (same volume the batch analysis accumulated).
        self._cts_events: List[Tuple[int, MacAddress]] = []    # (t, RA)
        self._probe_resp: List[Tuple[int, MacAddress, MacAddress]] = []
        # Per-bin DATA (sender, receiver) pairs: bounded by station pairs.
        n_bins = max(1, (duration_us + bin_us - 1) // bin_us)
        self._n_bins = n_bins
        self._data_pairs: List[Set[Tuple[MacAddress, MacAddress]]] = [
            set() for _ in range(n_bins)
        ]

    def on_jframe(self, jframe) -> None:
        frame = jframe.frame
        if frame is None:
            return
        self._tracker.feed(jframe)
        t = jframe.timestamp_us
        sender = frame.addr2
        ftype = frame.ftype
        if frame_marks_cck_only(frame) and sender is not None:
            self._b_clients.add(sender)
        if ftype is FrameType.ASSOC_REQUEST and sender is not None:
            self._seq += 1
            self._assoc_req[sender] = (self._seq, frame.addr1)
        elif ftype is FrameType.DATA and sender is not None and frame.to_ds:
            self._seq += 1
            self._assoc_data[sender] = (self._seq, frame.addr1)

        if ftype is FrameType.CTS:
            self._cts_events.append((t, frame.addr1))
        elif ftype is FrameType.PROBE_RESPONSE and sender is not None:
            self._probe_resp.append((t, sender, frame.addr1))
        elif ftype is FrameType.DATA:
            index = min(max(t, 0) // self.bin_us, self._n_bins - 1)
            self._data_pairs[index].add((sender, frame.addr1))

    def finish(self, context: PassContext) -> ProtectionResult:
        clients, aps = self._tracker.finish()
        b_clients = self._b_clients
        g_clients = {c for c in clients if c not in b_clients}

        association: Dict[MacAddress, MacAddress] = {}
        for sender, (seq, ap) in self._assoc_req.items():
            association[sender] = ap
        for sender, (seq, ap) in self._assoc_data.items():
            if sender not in clients:
                continue
            prior = self._assoc_req.get(sender)
            if prior is None or prior[0] < seq:
                association[sender] = ap

        b_in_range: Dict[MacAddress, List[int]] = defaultdict(list)
        for t, sender, receiver in self._probe_resp:
            if sender in aps and receiver in b_clients:
                b_in_range[sender].append(t)
        for times in b_in_range.values():
            times.sort()

        bin_us = self.bin_us
        n_bins = self._n_bins
        bins = [ProtectionBin(start_us=i * bin_us) for i in range(n_bins)]

        def bin_of(t: int) -> ProtectionBin:
            return bins[min(max(t, 0) // bin_us, n_bins - 1)]

        for t, target in self._cts_events:
            # CTS-to-self: RA names the protected transmitter.
            if target in aps:
                ap = target
            elif target in association:
                ap = association[target]
            else:
                continue
            slot = bin_of(t)
            slot.protecting_aps.add(ap)
            if not _b_client_recently_in_range(
                b_in_range.get(ap, ()), t, self.practical_timeout_us
            ):
                slot.overprotective_aps.add(ap)

        for slot, pairs in zip(bins, self._data_pairs):
            for sender, receiver in pairs:
                if sender in g_clients:
                    slot.active_g_clients.add(sender)
                elif sender in aps and receiver in g_clients:
                    slot.active_g_clients.add(receiver)

        for slot in bins:
            for client in slot.active_g_clients:
                ap = association.get(client)
                if ap is not None and ap in slot.overprotective_aps:
                    slot.g_clients_on_overprotective.add(client)

        return ProtectionResult(
            bins=bins, bin_us=bin_us, b_clients=b_clients, g_clients=g_clients
        )


def _b_client_recently_in_range(
    times: Sequence[int], t: int, timeout_us: int
) -> bool:
    """Was any 802.11b client in range of the AP within the timeout?"""
    from bisect import bisect_right

    index = bisect_right(times, t)
    if index == 0:
        return False
    return t - times[index - 1] <= timeout_us
