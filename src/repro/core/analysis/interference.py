"""Co-channel interference estimation — Section 7.2, Figure 9.

The estimator is exactly the paper's: for each sender/receiver pair
``(s, r)``, split transmissions into those with and without a simultaneous
transmission elsewhere in the trace, and attribute the *excess* loss under
simultaneity to interference:

    P_i = P[I|S] = [(nlx/nx) - (nl0/n0)] / (1 - nl0/n0)

The interference loss rate is then ``X = P_i * (nx / n)``, truncated at
zero when the estimate goes negative (the paper truncates 11% of pairs).
Only pairs exchanging at least ``min_packets`` transmissions are scored
(the paper uses 100 over a day; compressed scenarios pass less).

The estimator is implemented as :class:`InterferenceScanner`, an
*incremental* feed: jframes grow per-channel occupancy timelines,
attempts are scored against them on arrival, and — because jframes and
attempts both arrive in stream order — intervals that can no longer
overlap any future attempt are pruned, keeping the live window bounded
by tens of milliseconds of airtime rather than the whole trace.
:class:`InterferencePass` plugs the scanner into the pipeline's pass
API.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple


from ...dot11.address import MacAddress
from ..link.attempt import TransmissionAttempt
from ..passes import PassContext, PipelinePass
from ..unify.jframe import JFrame
from .summary import StationTracker


@dataclass
class PairInterference:
    """Interference estimate for one (sender, receiver) pair."""

    sender: MacAddress
    receiver: MacAddress
    n: int           # all transmissions s -> r
    n0: int          # without simultaneous transmission
    nl0: int         # ... of which lost
    nx: int          # with at least one simultaneous transmission
    nlx: int         # ... of which lost
    sender_is_ap: bool = False

    @property
    def background_loss_rate(self) -> float:
        return self.nl0 / self.n0 if self.n0 else 0.0

    @property
    def p_interference(self) -> Optional[float]:
        """P_i = P[I|S]; None when no simultaneous transmissions occurred."""
        if self.nx == 0 or self.n0 == 0:
            return None
        background = self.background_loss_rate
        if background >= 1.0:
            return None
        return ((self.nlx / self.nx) - background) / (1.0 - background)

    @property
    def interference_loss_rate(self) -> float:
        """X: probability a transmission from s to r is lost to interference."""
        p = self.p_interference
        if p is None:
            return 0.0
        return max(0.0, p) * (self.nx / self.n)


@dataclass
class InterferenceResult:
    pairs: List[PairInterference]
    truncated_pairs: int = 0    # negative P_i truncated to zero

    @property
    def n_pairs(self) -> int:
        return len(self.pairs)

    def fraction_pairs_interfered(self) -> float:
        """Fraction of scored pairs with positive interference estimate."""
        if not self.pairs:
            return 0.0
        positive = sum(
            1
            for p in self.pairs
            if p.p_interference is not None and p.p_interference > 0
        )
        return positive / len(self.pairs)

    def sender_split(self) -> Tuple[float, float]:
        """(AP share, client share) among interfered pairs (paper: 56/44)."""
        interfered = [
            p
            for p in self.pairs
            if p.p_interference is not None and p.p_interference > 0
        ]
        if not interfered:
            return 0.0, 0.0
        aps = sum(1 for p in interfered if p.sender_is_ap)
        return aps / len(interfered), 1 - aps / len(interfered)

    def loss_rate_cdf(self) -> List[float]:
        """Sorted X values across pairs — the Figure 9 curve."""
        return sorted(p.interference_loss_rate for p in self.pairs)

    def fraction_pairs_with_rate_at_least(self, threshold: float) -> float:
        if not self.pairs:
            return 0.0
        return (
            sum(
                1
                for p in self.pairs
                if p.interference_loss_rate >= threshold
            )
            / len(self.pairs)
        )

    def average_background_loss(self) -> float:
        total_n0 = sum(p.n0 for p in self.pairs)
        total_nl0 = sum(p.nl0 for p in self.pairs)
        return total_nl0 / total_n0 if total_n0 else 0.0

    def format_table(self) -> str:
        ap_share, client_share = self.sender_split()
        xs = self.loss_rate_cdf()
        median = xs[len(xs) // 2] if xs else 0.0
        return "\n".join(
            [
                f"scored (s,r) pairs:        {self.n_pairs}",
                f"pairs with interference:   "
                f"{self.fraction_pairs_interfered():.2f} (paper: 0.88)",
                f"sender split AP/client:    {ap_share:.2f}/{client_share:.2f} "
                f"(paper: 0.56/0.44)",
                f"avg background loss rate:  "
                f"{self.average_background_loss():.3f} (paper: 0.12)",
                f"median interference rate:  {median:.3f} "
                f"(paper: ~0.025 at the median)",
                f"pairs with X >= 0.1:       "
                f"{self.fraction_pairs_with_rate_at_least(0.1):.2f} (paper: 0.10)",
                f"pairs with X >= 0.2:       "
                f"{self.fraction_pairs_with_rate_at_least(0.2):.2f} (paper: 0.05)",
                f"negative P_i truncated:    {self.truncated_pairs}",
            ]
        )


#: The estimator's backwards scan margin: an overlapping frame that
#: started more than this long before the attempt is not considered
#: (matches the batch implementation's bisect bound).
SCAN_MARGIN_US = 20_000

#: Upper bound on any single frame's airtime: the longest legal PSDU at
#: 1 Mb/s is ~19 ms and the 15-bit Duration field tops out at 32.8 ms.
#: Used to bound both the prune horizon and the candidate scan range.
_DURATION_BOUND_US = 33_000


class _ChannelWindow:
    """One channel's occupancy intervals, in arrival (end-time) order.

    The jframe stream is ordered by end-of-reception timestamp, so the
    parallel ``ends`` array is sorted and overlap candidates for a query
    ``[qstart, qend)`` live in the slice ``end > qstart`` and
    ``end <= qend + duration bound`` — a bisect range bounded by the
    airtime window, independent of trace length.  A head index advances
    past intervals no future query can overlap; compaction frees them.
    """

    __slots__ = ("ends", "items", "head")

    def __init__(self) -> None:
        self.ends: List[int] = []
        self.items: List[Tuple[int, int, Optional[MacAddress]]] = []
        self.head = 0

    def add(self, start: int, end: int, tx: Optional[MacAddress]) -> None:
        self.ends.append(end)
        self.items.append((start, end, tx))

    def prune(self, floor: int) -> None:
        """Drop intervals with ``end < floor`` (irrelevant forever)."""
        ends = self.ends
        head = self.head
        n = len(ends)
        while head < n and ends[head] < floor:
            head += 1
        self.head = head
        if head > 4096 and head * 2 > n:
            del ends[:head]
            del self.items[:head]
            self.head = 0

    def has_simultaneous(
        self,
        start_us: int,
        end_us: int,
        exclude: Tuple[Optional[MacAddress], ...],
    ) -> bool:
        """Any overlapping transmission from a third party?"""
        ends = self.ends
        # Overlap requires other.end > start and other.start < end; the
        # latter bounds other.end by end + max frame airtime.
        lo = bisect_right(ends, start_us, lo=self.head)
        hi = bisect_right(ends, end_us + _DURATION_BOUND_US, lo=lo)
        items = self.items
        margin = start_us - SCAN_MARGIN_US
        for index in range(lo, hi):
            other_start, _, transmitter = items[index]
            # Scan only a bounded margin backwards for long frames that
            # started earlier (the batch estimator's bisect bound).
            if other_start < margin or other_start >= end_us:
                continue
            if transmitter is not None and transmitter in exclude:
                continue
            return True
        return False


class InterferenceScanner:
    """Incremental Section 7.2 estimator.

    Feed jframes (occupancy) and attempts (scored transmissions) in
    stream order; :meth:`result` builds the scored pair population.  The
    per-channel windows self-prune, so memory stays bounded by the
    airtime horizon when driven from the live pipeline.
    """

    def __init__(self) -> None:
        self._windows: Dict[int, _ChannelWindow] = defaultdict(_ChannelWindow)
        self._counters: Dict[
            Tuple[MacAddress, MacAddress], List[int]
        ] = defaultdict(lambda: [0, 0, 0, 0, 0])  # n, n0, nl0, nx, nlx
        #: Attempts awaiting their overlap query: an attempt seals before
        #: a *long* overlapping frame (started before the attempt's data
        #: ended, ending after the seal point) has arrived, so queries
        #: wait until the jframe watermark passes end + max airtime.
        self._pending: "deque[TransmissionAttempt]" = deque()
        #: Largest data end over scorable attempts fed so far.  Attempts
        #: arrive in data-frame stream order, so every future query ends
        #: at or after this — the only safe prune anchor in both feeding
        #: styles (live interleaved, and ``benchmarks/e2e/staged.py``,
        #: where all jframes precede all attempts).
        self._max_attempt_end: Optional[int] = None

    def feed_jframe(self, jframe: JFrame) -> None:
        window = None
        if jframe.duration_us > 0:
            window = self._windows[jframe.channel]
            window.add(jframe.start_us, jframe.end_us, jframe.transmitter)
        watermark = jframe.timestamp_us
        pending = self._pending
        while (
            pending
            and pending[0].data.end_us + _DURATION_BOUND_US <= watermark
        ):
            self._score(pending.popleft())
        if window is not None:
            # Keep every channel's window bounded — including channels
            # that never see a scored attempt (all-broadcast/management
            # traffic), which would otherwise accumulate forever.  No
            # future query can end before the oldest still-pending
            # attempt, nor before the newest attempt fed so far.
            if pending:
                oldest = pending[0].data.end_us
            elif self._max_attempt_end is not None:
                oldest = self._max_attempt_end
            else:
                return
            window.prune(oldest - _DURATION_BOUND_US - SCAN_MARGIN_US)

    def feed_attempt(self, attempt: TransmissionAttempt) -> None:
        if (
            not attempt.has_data
            or attempt.is_broadcast
            or attempt.transmitter is None
            or attempt.receiver is None
        ):
            return
        self._max_attempt_end = attempt.data.end_us
        self._pending.append(attempt)

    def _score(self, attempt: TransmissionAttempt) -> None:
        data = attempt.data
        window = self._windows[data.channel]
        # Attempts arrive in data-frame stream order, so every future
        # query ends at or after this one; intervals ending more than a
        # frame-airtime-plus-margin before it can never overlap again.
        window.prune(data.end_us - _DURATION_BOUND_US - SCAN_MARGIN_US)
        simultaneous = window.has_simultaneous(
            data.start_us,
            data.end_us,
            exclude=(attempt.transmitter, attempt.receiver),
        )
        lost = not attempt.acked
        c = self._counters[(attempt.transmitter, attempt.receiver)]
        c[0] += 1
        if simultaneous:
            c[3] += 1
            if lost:
                c[4] += 1
        else:
            c[1] += 1
            if lost:
                c[2] += 1

    def result(
        self, aps: Set[MacAddress], min_packets: int = 100
    ) -> InterferenceResult:
        pending = self._pending
        while pending:
            self._score(pending.popleft())
        pairs: List[PairInterference] = []
        truncated = 0
        for (sender, receiver), (n, n0, nl0, nx, nlx) in self._counters.items():
            if n < min_packets:
                continue
            pair = PairInterference(
                sender=sender,
                receiver=receiver,
                n=n,
                n0=n0,
                nl0=nl0,
                nx=nx,
                nlx=nlx,
                sender_is_ap=sender in aps,
            )
            p = pair.p_interference
            if p is not None and p < 0:
                truncated += 1
            pairs.append(pair)
        pairs.sort(key=lambda p: (str(p.sender), str(p.receiver)))
        return InterferenceResult(pairs=pairs, truncated_pairs=truncated)


class InterferencePass(PipelinePass):
    """Streaming Figure 9: the scanner fed from the pipeline's loop."""

    name = "interference"

    def __init__(
        self,
        min_packets: int = 100,
        tracker: Optional[StationTracker] = None,
    ) -> None:
        self.min_packets = min_packets
        self._scanner = InterferenceScanner()
        self._tracker = tracker or StationTracker()

    def on_jframe(self, jframe) -> None:
        self._tracker.feed(jframe)
        self._scanner.feed_jframe(jframe)

    def on_attempt(self, attempt) -> None:
        self._scanner.feed_attempt(attempt)

    def finish(self, context: PassContext) -> InterferenceResult:
        _, aps = self._tracker.finish()
        return self._scanner.result(aps, min_packets=self.min_packets)
