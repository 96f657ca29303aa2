"""TCP endpoints.

A deliberately small but *behaviorally real* TCP: three-way handshake,
windowed data transfer with cumulative ACKs, retransmission on RTO with
exponential backoff, fast retransmit on triple duplicate ACKs, and FIN
teardown.  These are exactly the dynamics Jigsaw's transport inference
consumes — "RTT, RTO, fast retransmissions, segment losses" (Section 5.2,
after Jaiswal et al.) — and the ACK-coverage oracle depends on cumulative
acknowledgments covering delivered sequence space.

Congestion control is reduced to a fixed window: the paper's analyses need
loss/retransmission structure, not cwnd evolution, and a fixed window keeps
flows deterministic and fast to simulate.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Protocol, Tuple

import numpy as np

from ..net.packets import IpPacket, TcpFlags, TcpSegment
from ..sim.kernel import EventHandle, Kernel

_SEQ_MOD = 1 << 32


def seq_add(a: int, delta: int) -> int:
    return (a + delta) % _SEQ_MOD


def seq_lt(a: int, b: int) -> bool:
    """Modular 32-bit sequence comparison (RFC 793 style)."""
    return ((b - a) % _SEQ_MOD) - 1 < (_SEQ_MOD // 2) - 1 and a != b


def seq_leq(a: int, b: int) -> bool:
    return a == b or seq_lt(a, b)


class Port(Protocol):
    """Where a peer pushes outgoing packets (wireless or wired path)."""

    def send(self, packet: IpPacket) -> None: ...


class TcpState(enum.Enum):
    CLOSED = "closed"
    LISTEN = "listen"
    SYN_SENT = "syn_sent"
    SYN_RCVD = "syn_rcvd"
    ESTABLISHED = "established"
    FIN_WAIT = "fin_wait"
    CLOSE_WAIT = "close_wait"
    DONE = "done"
    ABORTED = "aborted"


#: Fixed in-flight window, in segments.
DEFAULT_WINDOW_SEGMENTS = 8

#: Initial retransmission timeout and its cap.
DEFAULT_RTO_US = 300_000
MAX_RTO_US = 5_000_000

#: Give up after this many consecutive unanswered retransmissions.
MAX_RETX = 10


@dataclass
class TcpStats:
    """Ground-truth per-peer counters for the evaluation."""

    segments_sent: int = 0
    data_segments_sent: int = 0
    retransmits_timeout: int = 0
    retransmits_fast: int = 0
    acks_sent: int = 0
    bytes_acked: int = 0


class TcpPeer:
    """One endpoint of one connection."""

    def __init__(
        self,
        kernel: Kernel,
        port: Port,
        local_ip: int,
        local_port: int,
        remote_ip: int,
        remote_port: int,
        rng: np.random.Generator,
        is_client: bool,
        bytes_to_send: int = 0,
        segment_bytes: int = 1460,
        window_segments: int = DEFAULT_WINDOW_SEGMENTS,
        rto_us: int = DEFAULT_RTO_US,
        on_complete: Optional[Callable[[bool], None]] = None,
    ) -> None:
        self.kernel = kernel
        self.port = port
        self.local_ip = local_ip
        self.local_port = local_port
        self.remote_ip = remote_ip
        self.remote_port = remote_port
        self.is_client = is_client
        self.bytes_to_send = bytes_to_send
        self.segment_bytes = segment_bytes
        self.window_segments = window_segments
        self.base_rto_us = rto_us
        self.on_complete = on_complete
        self.stats = TcpStats()

        self.state = TcpState.CLOSED if is_client else TcpState.LISTEN
        self.isn = int(rng.integers(0, _SEQ_MOD))
        self.snd_una = self.isn
        self.snd_nxt = self.isn
        self.rcv_nxt: Optional[int] = None
        self._sent_segments: Dict[int, int] = {}   # seq -> payload_len
        self._ooo: Dict[int, int] = {}             # out-of-order seq -> len
        self._dupacks = 0
        self._retx_count = 0
        self._rto_us = rto_us
        self._rto_timer: Optional[EventHandle] = None
        self._fin_seq: Optional[int] = None
        self._sent_fin = False
        self._peer_fin_seen = False

    # --- lifecycle -------------------------------------------------------

    def open(self) -> None:
        """Client: begin the three-way handshake."""
        assert self.is_client
        self.state = TcpState.SYN_SENT
        self._send(TcpFlags.SYN, seq=self.isn)
        self.snd_nxt = seq_add(self.isn, 1)
        self._arm_rto()

    def abort(self) -> None:
        self._disarm_rto()
        if self.state not in (TcpState.DONE, TcpState.ABORTED):
            self.state = TcpState.ABORTED
            if self.on_complete is not None:
                self.on_complete(False)

    @property
    def finished(self) -> bool:
        return self.state in (TcpState.DONE, TcpState.ABORTED)

    # --- receive path ----------------------------------------------------------

    def handle(self, seg: TcpSegment) -> None:
        if self.finished:
            return
        if seg.is_syn and not seg.is_ack:
            self._handle_syn(seg)
        elif seg.is_syn and seg.is_ack:
            self._handle_synack(seg)
        else:
            if seg.payload_len > 0 or seg.is_fin:
                self._handle_data(seg)
            if seg.is_ack:
                self._handle_ack(seg)

    def _handle_syn(self, seg: TcpSegment) -> None:
        if self.state is not TcpState.LISTEN:
            # SYN retransmission: re-answer.
            if self.rcv_nxt is None:
                return
        self.rcv_nxt = seq_add(seg.seq, 1)
        self.state = TcpState.SYN_RCVD
        self._send(TcpFlags.SYN | TcpFlags.ACK, seq=self.isn, ack=self.rcv_nxt)
        self.snd_nxt = seq_add(self.isn, 1)
        self._arm_rto()

    def _handle_synack(self, seg: TcpSegment) -> None:
        if self.state is not TcpState.SYN_SENT:
            return
        self.rcv_nxt = seq_add(seg.seq, 1)
        self.snd_una = seg.ack
        self.state = TcpState.ESTABLISHED
        self._retx_count = 0
        self._rto_us = self.base_rto_us
        self._send_ack()
        self._disarm_rto()
        self._pump()

    def _handle_data(self, seg: TcpSegment) -> None:
        if self.rcv_nxt is None:
            return
        if self.state is TcpState.SYN_RCVD:
            # Our SYN-ACK was ACKed implicitly by data arriving.
            self.state = TcpState.ESTABLISHED
            self._disarm_rto()
        advanced = False
        if seg.payload_len > 0:
            if seg.seq == self.rcv_nxt:
                self.rcv_nxt = seq_add(self.rcv_nxt, seg.payload_len)
                advanced = True
                self._drain_ooo()
            elif seq_lt(self.rcv_nxt, seg.seq):
                self._ooo[seg.seq] = seg.payload_len
            # else: duplicate of already-received data; just re-ACK.
        if seg.is_fin:
            fin_seq = seq_add(seg.seq, seg.payload_len)
            if fin_seq == self.rcv_nxt:
                self.rcv_nxt = seq_add(self.rcv_nxt, 1)
                self._peer_fin_seen = True
                advanced = True
        self._send_ack()
        self._maybe_send_fin()
        self._maybe_finish()

    def _drain_ooo(self) -> None:
        while self.rcv_nxt in self._ooo:
            length = self._ooo.pop(self.rcv_nxt)
            self.rcv_nxt = seq_add(self.rcv_nxt, length)

    def _handle_ack(self, seg: TcpSegment) -> None:
        if self.state is TcpState.SYN_RCVD and seq_lt(self.snd_una, seg.ack):
            self.state = TcpState.ESTABLISHED
            self.snd_una = seg.ack
            self._disarm_rto()
            self._retx_count = 0
            self._pump()
            return
        if seq_lt(self.snd_una, seg.ack) and seq_leq(seg.ack, self.snd_nxt):
            delta = (seg.ack - self.snd_una) % _SEQ_MOD
            self.stats.bytes_acked += delta
            self.snd_una = seg.ack
            self._sent_segments = {
                seq: length
                for seq, length in self._sent_segments.items()
                if seq_leq(seg.ack, seq)
            }
            self._dupacks = 0
            self._retx_count = 0
            self._rto_us = self.base_rto_us
            if self._unacked_bytes() == 0:
                self._disarm_rto()
            else:
                self._arm_rto(refresh=True)
            self._pump()
            self._maybe_send_fin()
        elif seg.ack == self.snd_una and self._unacked_bytes() > 0:
            self._dupacks += 1
            if self._dupacks >= 3:
                self._fast_retransmit()
        self._maybe_finish()

    # --- send path -----------------------------------------------------------------

    def _pump(self) -> None:
        """Send new data while the window allows, then FIN when done."""
        if self.state is not TcpState.ESTABLISHED:
            return
        window_bytes = self.window_segments * self.segment_bytes
        while True:
            sent_bytes = (self.snd_nxt - seq_add(self.isn, 1)) % _SEQ_MOD
            remaining = self.bytes_to_send - sent_bytes
            if remaining <= 0:
                break
            in_flight = self._unacked_bytes()
            if in_flight + self.segment_bytes > window_bytes:
                break
            length = min(self.segment_bytes, remaining)
            self._send(
                TcpFlags.ACK | TcpFlags.PSH,
                seq=self.snd_nxt,
                ack=self.rcv_nxt or 0,
                payload_len=length,
            )
            self.stats.data_segments_sent += 1
            self._sent_segments[self.snd_nxt] = length
            self.snd_nxt = seq_add(self.snd_nxt, length)
            self._arm_rto()
        self._maybe_send_fin()

    def _data_fully_acked(self) -> bool:
        sent = (self.snd_nxt - seq_add(self.isn, 1)) % _SEQ_MOD
        return sent == self.bytes_to_send and self._unacked_bytes() == 0

    def _maybe_send_fin(self) -> None:
        """Close our half of the connection when it is our turn.

        The data sender closes first, once everything is acked; a pure
        receiver closes only in response to the peer's FIN.  This mirrors
        the dominant close pattern in real traces and avoids premature
        half-close racing the transfer.
        """
        if self._sent_fin or self.state is not TcpState.ESTABLISHED:
            return
        if not self._data_fully_acked():
            return
        if self.bytes_to_send > 0 or self._peer_fin_seen:
            self._send_fin()

    def _send_fin(self) -> None:
        self._sent_fin = True
        self._fin_seq = self.snd_nxt
        self._send(
            TcpFlags.FIN | TcpFlags.ACK, seq=self.snd_nxt, ack=self.rcv_nxt or 0
        )
        self.snd_nxt = seq_add(self.snd_nxt, 1)
        self.state = TcpState.FIN_WAIT
        self._arm_rto()

    def _send_ack(self) -> None:
        self.stats.acks_sent += 1
        self._send(TcpFlags.ACK, seq=self.snd_nxt, ack=self.rcv_nxt or 0)

    def _send(
        self,
        flags: TcpFlags,
        seq: int,
        ack: int = 0,
        payload_len: int = 0,
    ) -> None:
        self.stats.segments_sent += 1
        segment = TcpSegment(
            sport=self.local_port,
            dport=self.remote_port,
            seq=seq,
            ack=ack,
            flags=flags,
            payload_len=payload_len,
        )
        self.port.send(IpPacket(self.local_ip, self.remote_ip, segment))

    def _unacked_bytes(self) -> int:
        """Sequence space in flight (payload plus any unacked SYN/FIN)."""
        return (self.snd_nxt - self.snd_una) % _SEQ_MOD

    def _fin_acked(self) -> bool:
        if self._fin_seq is None:
            return False
        return seq_lt(self._fin_seq, self.snd_una)

    # --- retransmission --------------------------------------------------------------

    def _fast_retransmit(self) -> None:
        self._dupacks = 0
        length = self._sent_segments.get(self.snd_una)
        if length is None:
            return
        self.stats.retransmits_fast += 1
        self._send(
            TcpFlags.ACK | TcpFlags.PSH,
            seq=self.snd_una,
            ack=self.rcv_nxt or 0,
            payload_len=length,
        )
        self._arm_rto(refresh=True)

    def _arm_rto(self, refresh: bool = False) -> None:
        if self._rto_timer is not None:
            if not refresh:
                return
            self._rto_timer.cancel()
        self._rto_timer = self.kernel.after(self._rto_us, self._on_rto)

    def _disarm_rto(self) -> None:
        if self._rto_timer is not None:
            self._rto_timer.cancel()
            self._rto_timer = None

    def _on_rto(self) -> None:
        self._rto_timer = None
        if self.finished:
            return
        self._retx_count += 1
        if self._retx_count > MAX_RETX:
            self.abort()
            return
        self._rto_us = min(self._rto_us * 2, MAX_RTO_US)
        if self.state is TcpState.SYN_SENT:
            self._send(TcpFlags.SYN, seq=self.isn)
        elif self.state is TcpState.SYN_RCVD:
            self._send(
                TcpFlags.SYN | TcpFlags.ACK,
                seq=self.isn,
                ack=self.rcv_nxt or 0,
            )
        elif self._unacked_bytes() > 0 or self._sent_fin:
            if self._sent_fin and self.snd_una == self._fin_seq:
                self._send(
                    TcpFlags.FIN | TcpFlags.ACK,
                    seq=self._fin_seq,
                    ack=self.rcv_nxt or 0,
                )
            else:
                length = self._sent_segments.get(self.snd_una)
                if length is not None:
                    self.stats.retransmits_timeout += 1
                    self._send(
                        TcpFlags.ACK | TcpFlags.PSH,
                        seq=self.snd_una,
                        ack=self.rcv_nxt or 0,
                        payload_len=length,
                    )
        self._arm_rto(refresh=True)

    # --- teardown ----------------------------------------------------------------

    def _maybe_finish(self) -> None:
        if self.finished:
            return
        if self._sent_fin and self._fin_acked() and self._peer_fin_seen:
            self.state = TcpState.DONE
            self._disarm_rto()
            if self.on_complete is not None:
                self.on_complete(True)


class TcpDemux:
    """Per-node connection demultiplexer."""

    def __init__(self) -> None:
        self._handlers: Dict[Tuple[int, int, int], Callable[[TcpSegment], None]] = {}

    def register(
        self,
        local_port: int,
        remote_ip: int,
        remote_port: int,
        handler: Callable[[TcpSegment], None],
    ) -> None:
        key = (local_port, remote_ip, remote_port)
        if key in self._handlers:
            raise ValueError(f"connection already registered: {key}")
        self._handlers[key] = handler

    def deliver(self, packet: IpPacket) -> bool:
        if not isinstance(packet.payload, TcpSegment):
            return False
        seg = packet.payload
        handler = self._handlers.get((seg.dport, packet.src, seg.sport))
        if handler is None:
            return False
        handler(seg)
        return True
