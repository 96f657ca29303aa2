"""Frame exchanges: composing attempts, with inference for missing data.

Section 5.1's right-hand FSM: "we then group transmission attempts into
frame exchanges — complete sets of transmission attempts (including
retransmissions) that end in a link-layer frame being successfully
delivered or not."  Classification is driven by the change in the 12-bit
sequence number since the last attempt from the same sender:

* **R1** — broadcast/multicast: never retransmitted; attempt == exchange.
* frames without sequence numbers (orphan ACKs) are queued "until more
  data becomes available to resolve their position";
* **R2** — delta 0: a retransmission; coalesce into the open exchange;
* **R3** — delta 1: a new exchange begins; queued orphan attempts are
  resolved heuristically (ACK timing, "acknowledgments are less likely to
  be lost than data", "the coded rate of a frame never increases in
  response to a loss", "almost all frame exchanges can complete within
  500 ms");
* **R4** — delta > 1: no inference; flush the queue, start fresh.

Delivery is *tri-state*: ``True`` (ACK observed), ``False`` (link-layer
failure inferred), ``None`` (ambiguous — "if we never see an ACK, it is
ambiguous if the frame was lost or if we simply did not observe the ACK").
Transport-layer inference (Section 5.2) later upgrades the ``None``s.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ...dot11.address import MacAddress
from ...dot11.constants import EXCHANGE_HORIZON_US, RETRY_LIMIT, SEQ_MODULO
from ..unify.jframe import JFrame
from .attempt import TransmissionAttempt

#: How far an attempt's ``start_us`` may regress behind the end of the
#: jframe that created it.  An attempt starts no earlier than its attached
#: protection CTS, whose reservation (bounded by the 15-bit Duration field,
#: <= 32.8 ms) must still cover the DATA frame's start; the DATA airtime
#: itself is bounded by the longest legal PSDU at 1 Mb/s (~19 ms).  70 ms
#: therefore safely over-covers the sum, so attempts arriving later in the
#: stream can never start earlier than ``watermark - REORDER_SLACK``.
EXCHANGE_REORDER_SLACK_US = 70_000

#: Hard cap on one exchange's span, in horizons.  "Almost all frame
#: exchanges can complete within 500 ms"; a compliant sender exhausts its
#: retries well inside one horizon, so only a non-compliant sender
#: retransmitting the same sequence number indefinitely can keep an
#: exchange open longer — force-closing it bounds both the open-attempt
#: list and the reorder buffer's emission lag.
EXCHANGE_SPAN_LIMIT_HORIZONS = 8


@dataclass
class FrameExchange:
    """All attempts to deliver one link-layer frame."""

    transmitter: Optional[MacAddress]
    receiver: Optional[MacAddress]
    attempts: List[TransmissionAttempt] = field(default_factory=list)
    #: True: ACK observed.  False: inferred lost.  None: ambiguous.
    delivered: Optional[bool] = None
    #: Set when delivery was decided by transport-layer evidence.
    delivery_inferred_from_transport: bool = False
    #: Set when assembling this exchange required heuristic inference.
    needed_inference: bool = False

    @property
    def seq(self) -> Optional[int]:
        for attempt in self.attempts:
            if attempt.seq is not None:
                return attempt.seq
        return None

    @property
    def start_us(self) -> int:
        return self.attempts[0].start_us

    @property
    def end_us(self) -> int:
        return self.attempts[-1].end_us

    @property
    def n_attempts(self) -> int:
        return len(self.attempts)

    @property
    def retransmissions(self) -> int:
        return max(0, len([a for a in self.attempts if a.has_data]) - 1)

    @property
    def is_broadcast(self) -> bool:
        return any(a.is_broadcast for a in self.attempts)

    @property
    def data_jframe(self) -> Optional[JFrame]:
        for attempt in self.attempts:
            if attempt.data is not None:
                return attempt.data
        return None

    @property
    def final_rate_mbps(self) -> float:
        for attempt in reversed(self.attempts):
            if attempt.has_data:
                return attempt.rate_mbps
        return 0.0

    @property
    def channel(self) -> int:
        return self.attempts[0].channel


@dataclass
class ExchangeStats:
    attempts_in: int = 0
    exchanges: int = 0
    attempts_needing_inference: int = 0
    exchanges_needing_inference: int = 0
    orphans_resolved: int = 0
    orphans_discarded: int = 0


@dataclass(eq=False)
class _SenderState:
    """One transmitter's FSM; hashed by identity, so the assembler's
    open and orphan sets hold the states themselves."""

    last_seq: Optional[int] = None
    open_exchange: Optional[FrameExchange] = None
    orphan_queue: List[TransmissionAttempt] = field(default_factory=list)
    last_time_us: int = 0


class ExchangeAssembler:
    """Per-transmitter FSM composing attempts into frame exchanges.

    Incremental API: :meth:`feed` consumes one attempt from the stream and
    returns exchanges in ``start_us`` order (ties broken by closure order,
    i.e. exactly the stable start-time sort of the closure sequence).
    Per-sender FSMs close exchanges out of start order, so closed
    exchanges sit in a small bounded reorder heap until no open exchange
    — and no exchange a future attempt could still open — can precede
    them.  A sender that goes silent cannot stall the buffer: once the
    feed watermark passes an open exchange's last activity by more than
    the horizon plus the reorder slack, any future attempt from that
    sender would close it on arrival anyway, so it is closed eagerly
    with ``finish()`` semantics (orphan ACKs resolved first); nor can a
    non-compliant endless same-seq retransmission chain, whose exchange
    is force-closed once its span passes a hard cap.  Emission therefore
    lags the feed by at most a few exchange horizons, and downstream
    consumers
    (the pipeline's analysis passes) get in-order delivery without an
    end-of-run sort barrier.  :meth:`finish` closes every still-open
    exchange and drains the buffer.  An assembler drives one attempt
    stream: fed once, finished once.
    """

    def __init__(self) -> None:
        self.stats = ExchangeStats()
        self._senders: Dict[Optional[MacAddress], _SenderState] = {}
        self._closed = 0
        #: States currently holding an open exchange, in the insertion
        #: order the stale sweep closes them in (a dict used as an
        #: ordered set): the emission bound scans only these, and the
        #: sweep keeps the set trimmed to senders active within the last
        #: few horizons.
        self._open_states: Dict[_SenderState, None] = {}
        #: States with queued orphan attempts: the sweep discards orphans
        #: too old to ever resolve (resolution needs an open exchange
        #: ending at or before the orphan, and every future exchange ends
        #: after the watermark), so a sender whose data frames are never
        #: captured cannot grow its queue O(trace).
        self._orphan_states: Dict[_SenderState, None] = {}
        #: Closed exchanges awaiting ordered emission: (start, seq, exch).
        self._reorder: List[Tuple[int, int, FrameExchange]] = []
        self._emit_seq = 0
        #: Cached emission bound and the watermark that triggers its next
        #: recomputation.  The bound only ever under-estimates (emission
        #: may lag by one sweep step, never run early), so the
        #: stale-sweep/min-start scan of the open set runs once per
        #: quarter-horizon of trace time instead of once per attempt.
        self._bound = float("-inf")
        self._next_sweep = float("-inf")
        #: Largest creation-jframe end time over fed attempts: attempts
        #: arrive in creation order, so every future attempt's jframes end
        #: at or after this — and its start can precede it by at most the
        #: reorder slack.
        self._watermark = float("-inf")

    @property
    def watermark_us(self) -> float:
        """The emission bound: every exchange starting at or before this
        has been returned from :meth:`feed`.

        This is the conservative downstream watermark of the whole
        reconstruction: exchanges emit after attempts, which emit after
        jframes, so a consumer that has drained :meth:`feed`'s returns
        has seen *every* layer's events up to this bound.  The service
        daemon seals windowed pass output against it.  ``-inf`` until
        the first emission sweep, ``+inf`` once :meth:`finish` has
        drained everything; monotonically non-decreasing in between —
        including across a checkpoint/restore, since the cached bound is
        part of the pickled state.
        """
        return self._bound

    def feed(self, attempt: TransmissionAttempt) -> List[FrameExchange]:
        """Consume one attempt; return exchanges ready in start order."""
        closed: List[FrameExchange] = []
        self.stats.attempts_in += 1
        state = self._senders.setdefault(attempt.transmitter, _SenderState())

        # Stale open exchange: frame exchanges complete within 500 ms.
        if (
            state.open_exchange is not None
            and attempt.start_us - state.last_time_us > EXCHANGE_HORIZON_US
        ):
            self._close(state, closed, moved_on=False)
        state.last_time_us = attempt.start_us

        if attempt.is_broadcast:
            # R1: broadcast — attempt and exchange are identical, and
            # delivery has no link-layer meaning (no ACK expected).
            self._close(state, closed, moved_on=True)
            closed.append(
                FrameExchange(
                    transmitter=attempt.transmitter,
                    receiver=attempt.receiver,
                    attempts=[attempt],
                    delivered=True,
                )
            )
        elif attempt.seq is None:
            # An orphan (ACK- or CTS-only) attempt: queue until data
            # resolves its position.
            state.orphan_queue.append(attempt)
            self._orphan_states[state] = None
        elif state.last_seq is None or state.open_exchange is None:
            self._open_new(state, attempt, closed)
        else:
            delta = (attempt.seq - state.last_seq) % SEQ_MODULO
            if delta == 0:
                # R2: retransmission of the open exchange's frame.
                state.open_exchange.attempts.append(attempt)
                if attempt.acked:
                    state.open_exchange.delivered = True
                if not attempt.retry:
                    # Retransmission without the retry bit (the rare
                    # non-compliant implementations footnote 5 mentions).
                    state.open_exchange.needed_inference = True
                    self.stats.attempts_needing_inference += 1
            elif delta == 1:
                # R3: a new exchange; first resolve queued orphans.
                self._resolve_orphans(state, closed)
                self._open_new(state, attempt, closed, moved_on=True)
            else:
                # R4: sequence gap — no inference; flush.
                self.stats.orphans_discarded += len(state.orphan_queue)
                state.orphan_queue.clear()
                self._orphan_states.pop(state, None)
                self._open_new(state, attempt, closed, moved_on=False)

        # The attempt's creation jframe is its DATA frame when it has one
        # (ACK matching may extend ``end_us`` past it), else its only
        # jframe; creation-jframe ends are non-decreasing across the feed.
        creation_end = (
            attempt.data.end_us if attempt.data is not None else attempt.end_us
        )
        if creation_end > self._watermark:
            self._watermark = creation_end

        # Stale sweep + emission bound in one scan of the open set (which
        # the sweep itself keeps trimmed to recently-active senders).  A
        # sender silent for so long that any future attempt of its own
        # (start >= watermark - slack) would trigger the staleness close
        # above is treated like end-of-run: queued orphan ACKs are
        # resolved against its open exchange first (finish() semantics —
        # which can upgrade delivery where the on-arrival staleness close
        # would not have; the same asymmetry the batch assembler always
        # had between its staleness and finish paths), then the exchange
        # closes with moved_on=False inference.  An exchange whose *span*
        # exceeds the hard cap — only a non-compliant same-seq
        # retransmission chain can do that — is force-closed the same
        # way.  Without both rules an open exchange could pin the
        # emission bound (and grow the buffer) forever.
        #
        # The scan is amortized: it runs once per quarter-horizon of
        # watermark progress, not per attempt.  The cached bound stays
        # valid in between — exchanges opened after a sweep start at or
        # above (watermark-at-sweep - slack) >= bound, so a stale bound
        # only *delays* emission by at most one step, never emits early.
        if self._watermark >= self._next_sweep:
            bound = self._watermark - EXCHANGE_REORDER_SLACK_US
            stale_deadline = bound - EXCHANGE_HORIZON_US
            span_deadline = (
                bound - EXCHANGE_SPAN_LIMIT_HORIZONS * EXCHANGE_HORIZON_US
            )
            open_states = self._open_states
            if open_states:
                stale: List[_SenderState] = []
                for open_state in open_states:
                    start = open_state.open_exchange.start_us
                    if (
                        open_state.last_time_us < stale_deadline
                        or start < span_deadline
                    ):
                        stale.append(open_state)
                    elif start < bound:
                        bound = start
                for open_state in stale:
                    self._resolve_orphans(open_state, closed)
                    self._close(open_state, closed, moved_on=False)
            # Orphans queued by senders with no open exchange can only
            # ever resolve against an exchange ending at or before them;
            # every future exchange ends after the watermark, so orphans
            # older than the bound are dead — discard them (the same
            # verdict finish() or the next R3/R4 would reach).
            if self._orphan_states:
                for orphan_state in list(self._orphan_states):
                    if orphan_state.open_exchange is not None:
                        continue  # handled when that exchange closes
                    queue = orphan_state.orphan_queue
                    kept = [o for o in queue if o.start_us >= bound]
                    if len(kept) != len(queue):
                        self.stats.orphans_discarded += len(queue) - len(kept)
                        queue[:] = kept
                    if not queue:
                        self._orphan_states.pop(orphan_state, None)
            self._bound = bound
            self._next_sweep = self._watermark + EXCHANGE_HORIZON_US // 4

        self._closed += len(closed)
        for exchange in closed:
            heapq.heappush(
                self._reorder,
                (exchange.start_us, self._emit_seq, exchange),
            )
            self._emit_seq += 1
        ready: List[FrameExchange] = []
        reorder = self._reorder
        bound = self._bound
        while reorder and reorder[0][0] <= bound:
            ready.append(heapq.heappop(reorder)[2])
        return ready

    def finish(self) -> List[FrameExchange]:
        """Close every open exchange, resolve remaining orphans and drain
        the reorder buffer (in start order, like :meth:`feed`).

        Nothing can precede the drained exchanges any more, so the
        emission bound becomes ``+inf``.
        """
        closed: List[FrameExchange] = []
        for state in self._senders.values():
            self._resolve_orphans(state, closed)
            self._close(state, closed, moved_on=False)
        self._closed += len(closed)
        self.stats.exchanges = self._closed
        reorder = self._reorder
        for exchange in closed:
            heapq.heappush(reorder, (exchange.start_us, self._emit_seq, exchange))
            self._emit_seq += 1
        self._bound = float("inf")
        return [heapq.heappop(reorder)[2] for _ in range(len(reorder))]

    # --- internals --------------------------------------------------------

    def _open_new(
        self,
        state: _SenderState,
        attempt: TransmissionAttempt,
        exchanges: List[FrameExchange],
        moved_on: bool = False,
    ) -> None:
        self._close(state, exchanges, moved_on=moved_on)
        exchange = FrameExchange(
            transmitter=attempt.transmitter,
            receiver=attempt.receiver,
            attempts=[attempt],
            delivered=True if attempt.acked else None,
        )
        if attempt.retry:
            # First observed attempt already carries the retry bit: we
            # missed at least one earlier transmission of this exchange.
            exchange.needed_inference = True
            self.stats.attempts_needing_inference += 1
        state.open_exchange = exchange
        self._open_states[state] = None
        state.last_seq = attempt.seq

    def _close(
        self,
        state: _SenderState,
        exchanges: List[FrameExchange],
        moved_on: bool = False,
    ) -> None:
        if state.open_exchange is None:
            return
        exchange = state.open_exchange
        self._infer_delivery(exchange, moved_on)
        if exchange.needed_inference:
            self.stats.exchanges_needing_inference += 1
        exchanges.append(exchange)
        state.open_exchange = None
        self._open_states.pop(state, None)

    def _infer_delivery(self, exchange: FrameExchange, moved_on: bool) -> None:
        """Deduce delivery from the sender's visible MAC behaviour.

        "We must deduce the presence or absence of this missing data based
        on the subsequent behavior of the sender and receiver" (Section
        5.1).  With no ACK observed:

        * the sender burned through the full retry limit — it *abandoned*
          the frame, so the exchange failed;
        * the sender advanced to the next sequence number after fewer
          attempts — an 802.11 sender only stops retrying early because it
          received the ACK, so the monitors simply missed it.
        """
        if exchange.delivered is not None or exchange.is_broadcast:
            return
        n_data = sum(1 for a in exchange.attempts if a.has_data)
        if n_data >= RETRY_LIMIT:
            exchange.delivered = False
            exchange.needed_inference = True
            self.stats.attempts_needing_inference += 1
        elif moved_on and 1 <= n_data <= 2:
            # Missing one ACK is plausible; missing several in a row is not
            # ("acknowledgments are less likely to be lost than data").
            # Mid-size retry runs stay ambiguous for the transport oracle.
            exchange.delivered = True
            exchange.needed_inference = True
            self.stats.attempts_needing_inference += 1

    def _resolve_orphans(
        self, state: _SenderState, exchanges: List[FrameExchange]
    ) -> None:
        """Assign queued no-sequence attempts using timing heuristics.

        An orphan ACK addressed to this sender that falls inside the open
        exchange's plausible ACK window is evidence the (possibly missed)
        data of that exchange was delivered — "acknowledgments are less
        likely to be lost than data", so prefer believing the ACK over
        assuming a spurious match.
        """
        if not state.orphan_queue:
            return
        open_exchange = state.open_exchange
        for orphan in state.orphan_queue:
            resolved = False
            if (
                open_exchange is not None
                and orphan.ack is not None
                and open_exchange.delivered is not True
            ):
                gap = orphan.start_us - open_exchange.end_us
                if 0 <= gap <= EXCHANGE_HORIZON_US:
                    # The missing-DATA ACK completes the open exchange.
                    open_exchange.attempts.append(orphan)
                    open_exchange.delivered = True
                    open_exchange.needed_inference = True
                    self.stats.attempts_needing_inference += 1
                    self.stats.orphans_resolved += 1
                    resolved = True
            if not resolved:
                self.stats.orphans_discarded += 1
        state.orphan_queue.clear()
        self._orphan_states.pop(state, None)
