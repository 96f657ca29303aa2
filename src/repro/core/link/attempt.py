"""Transmission attempts: CTS-to-self + DATA + ACK grouping (Section 5.1).

"Jigsaw first identifies each transmission attempt from a sender ...  a
CTS-to-self packet, a subsequent DATA frame and the trailing ACK response
may all be part of the same attempt.  To group these together automatically
we first use the MAC address ...  As well, we use the Duration field,
carried in CTS and DATA frames, to deduce the future time in which an ACK,
if sent, must have been received.  This timing analysis is especially
critical when frames are missing from the trace since otherwise we might
risk assigning an ACK for a missing DATA frame to an earlier observed DATA
frame."

The assembler is a single pass over valid jframes per channel.  Its output
is a time-ordered list of :class:`TransmissionAttempt`, including *partial*
attempts (ACK without DATA, CTS without DATA) that the exchange FSM later
resolves or discards.

The assembler is incremental: :meth:`AttemptAssembler.feed` accepts one
jframe from the unification stream and returns the attempts that can no
longer change (their ACK arrived or its Duration-field deadline passed),
in creation order; :meth:`AttemptAssembler.finish` flushes the rest.  An
assembler drives one jframe stream: fed once, finished once.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Set, Tuple

from ...dot11.address import MacAddress
from ...dot11.constants import SLOT_TIME_LONG_US
from ...dot11.frame import FrameType
from ..unify.jframe import JFrame

#: Slack added to the Duration-field deadline when matching ACKs: allows
#: for timestamp quantization and residual sync error.
ACK_MATCH_SLACK_US = 3 * SLOT_TIME_LONG_US

#: A CTS-to-self reservation is considered stale this long after the time
#: window its Duration field reserved.
CTS_PENDING_SLACK_US = 200


@dataclass
class TransmissionAttempt:
    """One attempt: up to three jframes (protection CTS, DATA, ACK)."""

    transmitter: Optional[MacAddress]
    receiver: Optional[MacAddress]
    data: Optional[JFrame] = None
    cts: Optional[JFrame] = None
    ack: Optional[JFrame] = None

    @property
    def start_us(self) -> int:
        for jf in (self.cts, self.data, self.ack):
            if jf is not None:
                return jf.start_us
        raise ValueError("empty attempt")

    @property
    def end_us(self) -> int:
        latest = self.start_us
        for jf in (self.cts, self.data, self.ack):
            if jf is not None:
                latest = max(latest, jf.end_us)
        return latest

    @property
    def seq(self) -> Optional[int]:
        if self.data is not None and self.data.frame is not None:
            return self.data.frame.seq
        return None

    @property
    def retry(self) -> bool:
        return (
            self.data is not None
            and self.data.frame is not None
            and self.data.frame.retry
        )

    @property
    def rate_mbps(self) -> float:
        return self.data.rate_mbps if self.data is not None else 0.0

    @property
    def acked(self) -> bool:
        return self.ack is not None

    @property
    def has_data(self) -> bool:
        return self.data is not None

    @property
    def is_broadcast(self) -> bool:
        return (
            self.data is not None
            and self.data.frame is not None
            and self.data.frame.is_group_addressed
        )

    @property
    def channel(self) -> int:
        for jf in (self.data, self.cts, self.ack):
            if jf is not None:
                return jf.channel
        raise ValueError("empty attempt")


@dataclass(eq=False)
class _PendingData:
    """A DATA jframe awaiting its ACK (until the Duration deadline).

    Compared and hashed by identity: the unsealed set holds these.
    """

    attempt: TransmissionAttempt
    ack_deadline_us: int


@dataclass
class AttemptStats:
    jframes_in: int = 0
    attempts: int = 0
    acks_orphaned: int = 0       # ACK matched no in-window DATA
    cts_orphaned: int = 0        # protection CTS with no following DATA
    acks_matched: int = 0


class AttemptAssembler:
    """Single-pass grouping of jframes into transmission attempts."""

    def __init__(self) -> None:
        self.stats = AttemptStats()
        # Per-channel pending state.
        self._pending_cts: Dict[int, Dict[MacAddress, JFrame]] = {}
        self._pending_data: Dict[int, List[_PendingData]] = {}
        # Attempts in creation order, each with the pending entry it
        # awaits its ACK under (None if it awaits none); an attempt
        # leaves the queue once it is *sealed* (no future jframe can
        # mutate it).  ``_unsealed`` holds the entries still awaiting an
        # ACK or its deadline.
        self._emit: Deque[
            Tuple[TransmissionAttempt, Optional[_PendingData]]
        ] = deque()
        self._unsealed: Set[_PendingData] = set()

    def feed(self, jframe: JFrame) -> List[TransmissionAttempt]:
        """Consume one time-ordered jframe; return newly sealed attempts.

        Only frame types that participate in data exchanges matter here;
        management frames (beacons, probes, association) form single-frame
        attempts of their own so higher layers can still see them.
        Returned attempts are in creation order and immutable from here
        on, so they can flow straight into the exchange FSM.
        """
        if jframe.frame is None:
            return []
        self.stats.jframes_in += 1
        channel = jframe.channel
        cts_map = self._pending_cts.setdefault(channel, {})
        data_list = self._pending_data.setdefault(channel, [])
        self._expire(data_list, cts_map, jframe.timestamp_us)
        frame = jframe.frame

        if frame.ftype is FrameType.CTS:
            # CTS-to-self: RA names the protected sender.  (A CTS
            # answering an RTS looks identical; the sender match below
            # disambiguates in practice.)
            cts_map[frame.addr1] = jframe
        elif frame.ftype is FrameType.ACK:
            self._match_ack(jframe, data_list)
        elif frame.ftype.carries_sequence:
            attempt = TransmissionAttempt(
                transmitter=frame.addr2,
                receiver=frame.addr1,
                data=jframe,
            )
            # Attach a protection CTS from the same sender if its
            # reservation window covers this DATA frame.
            if frame.addr2 is not None and frame.addr2 in cts_map:
                cts = cts_map.pop(frame.addr2)
                # The CTS Duration field reserved the air through the
                # end of the protected exchange; the DATA frame must
                # start inside that reservation.
                if (
                    jframe.start_us
                    <= cts.end_us
                    + cts.frame.duration_us
                    + CTS_PENDING_SLACK_US
                ):
                    attempt.cts = cts
                else:
                    self.stats.cts_orphaned += 1
            pending: Optional[_PendingData] = None
            if frame.expects_ack:
                deadline = (
                    jframe.end_us
                    + frame.duration_us
                    + ACK_MATCH_SLACK_US
                )
                pending = _PendingData(attempt, deadline)
                data_list.append(pending)
                self._unsealed.add(pending)
            self._emit.append((attempt, pending))
            self.stats.attempts += 1
        # RTS and other control frames: ignored (the production network
        # does not use RTS/CTS exchanges; CTS-to-self is handled above).
        return self._drain()

    def finish(self) -> List[TransmissionAttempt]:
        """Flush attempts still awaiting an ACK deadline."""
        self._unsealed.clear()
        return self._drain()

    # --- helpers ---------------------------------------------------------

    def _drain(self) -> List[TransmissionAttempt]:
        """Pop the sealed prefix of the creation-order emission queue."""
        emit = self._emit
        unsealed = self._unsealed
        out: List[TransmissionAttempt] = []
        while emit and emit[0][1] not in unsealed:
            out.append(emit.popleft()[0])
        return out

    def _match_ack(
        self,
        ack: JFrame,
        data_list: List[_PendingData],
    ) -> None:
        """Assign an ACK to the pending DATA whose Duration window fits.

        The ACK's RA is the *data transmitter*.  Timing is authoritative:
        an ACK arriving after a DATA frame's deadline belongs to a missing
        later DATA frame, not the observed earlier one.
        """
        target = ack.frame.addr1
        best: Optional[_PendingData] = None
        for pending in data_list:
            attempt = pending.attempt
            if attempt.transmitter != target or attempt.ack is not None:
                continue
            if ack.timestamp_us > pending.ack_deadline_us:
                continue
            if ack.timestamp_us <= attempt.data.end_us:
                continue  # an ACK cannot end before its DATA frame did
            if best is None or pending.ack_deadline_us < best.ack_deadline_us:
                best = pending
        if best is not None:
            best.attempt.ack = ack
            data_list.remove(best)
            self._unsealed.discard(best)
            self.stats.acks_matched += 1
        else:
            # Evidence of a DATA frame the platform missed entirely.
            self._emit.append(
                (
                    TransmissionAttempt(
                        transmitter=target, receiver=None, ack=ack
                    ),
                    None,
                )
            )
            self.stats.acks_orphaned += 1
            self.stats.attempts += 1

    def _expire(
        self,
        data_list: List[_PendingData],
        cts_map: Dict[MacAddress, JFrame],
        now_us: int,
    ) -> None:
        kept = [p for p in data_list if p.ack_deadline_us >= now_us]
        if len(kept) != len(data_list):
            for pending in data_list:
                if pending.ack_deadline_us < now_us:
                    self._unsealed.discard(pending)
            data_list[:] = kept
        stale = [
            addr
            for addr, cts in cts_map.items()
            if now_us
            > cts.end_us + cts.frame.duration_us + CTS_PENDING_SLACK_US
        ]
        for addr in stale:
            del cts_map[addr]
