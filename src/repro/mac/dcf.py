"""Distributed coordination function (CSMA/CA) — Section 2's MAC tutorial.

"When a node wishes to send, it first validates that the channel is clear.
If the channel stays idle for a set period of time (DIFS) it transmits.
Otherwise, it selects a random backoff time in (0, N], and tries again. ...
when a station sends a unicast packet, the protocol requires the receiver to
respond immediately with an ACK packet.  If the sender does not receive an
ACK within a preset timeout, it doubles N, calculates a new (likely longer)
backoff time, and schedules a retransmission."

One :class:`Dcf` instance drives one wireless interface's transmit path:
carrier sense against the medium (position-dependent — hidden terminals
sense idle and collide), virtual carrier sense via the NAV the owner
maintains, slotted backoff with CW doubling, the retry bit, rate fallback
(never increasing in response to loss, the invariant Section 5.1's
heuristics rely on), and optional CTS-to-self protection for OFDM frames.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Optional

import numpy as np

from ..dot11.constants import (
    ACK_TIMEOUT_US,
    CW_MAX,
    CW_MIN,
    DIFS_US,
    RETRY_LIMIT,
    SIFS_US,
    SLOT_TIME_LONG_US,
)
from ..dot11.frame import Frame, make_cts_to_self
from ..dot11.rates import (
    PhyRate,
    RATE_2,
    ack_airtime_us,
    ack_rate_for,
    cts_to_self_duration_field_us,
    data_duration_field_us,
    next_lower_rate,
)
from ..dot11.serialize import frame_to_bytes
from ..sim.kernel import EventHandle, Kernel
from .medium import Medium, Transmission


@dataclass
class TxJob:
    """One frame queued for transmission (plus its exchange bookkeeping)."""

    frame: Frame
    rate: PhyRate
    protect: bool = False
    on_done: Optional[Callable[[bool], None]] = None
    attempts: int = 0


class Dcf:
    """The transmit state machine for one wireless interface."""

    def __init__(
        self,
        kernel: Kernel,
        medium: Medium,
        owner: "object",
        rng: np.random.Generator,
        slot_us: int = SLOT_TIME_LONG_US,
        max_queue: int = 256,
    ) -> None:
        """``owner`` must expose ``mac``, ``channel``, ``position``,
        ``tx_power_dbm``, ``nav_until_us``, ``allowed_rates`` and
        ``as_receiver()`` (the medium attachment, so a sender does not hear
        its own frame)."""
        self._kernel = kernel
        self._medium = medium
        self._owner = owner
        self._rng = rng
        self._slot_us = slot_us
        self._queue: Deque[TxJob] = deque()
        self._max_queue = max_queue
        self._cw = CW_MIN
        self._current: Optional[TxJob] = None
        self._pending_event: Optional[EventHandle] = None
        self._ack_timeout: Optional[EventHandle] = None
        self._awaiting_ack = False
        # Counters surfaced by the ground-truth report.
        self.frames_sent = 0
        self.frames_dropped = 0
        self.queue_overflows = 0

    # --- public API --------------------------------------------------------

    def enqueue(self, job: TxJob) -> bool:
        """Queue a frame; returns False (and drops) when the queue is full."""
        if len(self._queue) >= self._max_queue:
            self.queue_overflows += 1
            if job.on_done is not None:
                job.on_done(False)
            return False
        self._queue.append(job)
        if self._current is None:
            self._next_job()
        return True

    @property
    def idle(self) -> bool:
        return self._current is None and not self._queue

    def notify_ack_received(self) -> None:
        """Owner decoded an ACK addressed to it — completes the exchange."""
        if not self._awaiting_ack or self._current is None:
            return
        self._awaiting_ack = False
        if self._ack_timeout is not None:
            self._ack_timeout.cancel()
            self._ack_timeout = None
        self._finish(True)

    # --- job lifecycle -------------------------------------------------------

    def _next_job(self) -> None:
        self._current = None
        self._cw = CW_MIN
        if self._queue:
            self._current = self._queue.popleft()
            self._begin_access()

    def _finish(self, delivered: bool) -> None:
        job = self._current
        assert job is not None
        if delivered:
            self.frames_sent += 1
        else:
            self.frames_dropped += 1
        if job.on_done is not None:
            job.on_done(delivered)
        self._next_job()

    # --- channel access --------------------------------------------------------

    def _begin_access(self) -> None:
        """Compute an access time: idle point + DIFS + random backoff."""
        now = self._kernel.now_us
        busy_until = max(
            self._medium.busy_until(self._owner.channel, self._owner.position),
            self._owner.nav_until_us,
        )
        slots = int(self._rng.integers(0, self._cw + 1))
        start = max(now, busy_until) + DIFS_US + slots * self._slot_us
        self._pending_event = self._kernel.at(start, self._transmit_if_clear)

    def _transmit_if_clear(self) -> None:
        """Re-validate the channel at the chosen slot; defer if it filled."""
        self._pending_event = None
        now = self._kernel.now_us
        busy_until = max(
            self._medium.busy_until(self._owner.channel, self._owner.position),
            self._owner.nav_until_us,
        )
        if busy_until > now:
            # Channel became busy while we counted down; contend again.
            self._begin_access()
            return
        self._transmit_current()

    # --- transmission ------------------------------------------------------------

    def _transmit_current(self) -> None:
        job = self._current
        assert job is not None
        frame = job.frame if job.attempts == 0 else job.frame.as_retry()
        ack_rate = ack_rate_for(job.rate)

        if job.protect and job.rate.is_ofdm:
            # 802.11g protection: a CCK CTS-to-self reserves the channel
            # for the OFDM exchange (Section 2).
            cts = make_cts_to_self(
                self._owner.mac,
                cts_to_self_duration_field_us(
                    frame.size_bytes, job.rate, ack_rate
                ),
            )
            cts_tx = self._put_on_air(cts, RATE_2)
            data_start = cts_tx.end_us + SIFS_US
            self._kernel.at(
                data_start, lambda: self._transmit_data(frame, job, ack_rate)
            )
        else:
            self._transmit_data(frame, job, ack_rate)

    def _transmit_data(self, frame: Frame, job: TxJob, ack_rate: PhyRate) -> None:
        if frame.expects_ack:
            frame = frame.with_duration(data_duration_field_us(ack_rate))
        tx = self._put_on_air(frame, job.rate)
        job.attempts += 1
        if frame.expects_ack:
            self._awaiting_ack = True
            self._ack_timeout = self._kernel.at(
                tx.end_us + ACK_TIMEOUT_US + ack_airtime_us(ack_rate),
                self._on_ack_timeout,
            )
        else:
            # Broadcast/multicast: no ARQ; done at end of airtime (R1).
            self._kernel.at(tx.end_us, lambda: self._finish(True))

    def _put_on_air(self, frame: Frame, rate: PhyRate) -> Transmission:
        return self._medium.transmit(
            frame=frame,
            frame_bytes=frame_to_bytes(frame),
            rate=rate,
            channel=self._owner.channel,
            position=self._owner.position,
            power_dbm=self._owner.tx_power_dbm,
            transmitter_id=str(self._owner.mac),
            sender=self._owner.as_receiver(),
        )

    # --- retransmission ---------------------------------------------------------

    def _on_ack_timeout(self) -> None:
        self._ack_timeout = None
        self._awaiting_ack = False
        job = self._current
        if job is None:
            return
        if job.attempts >= RETRY_LIMIT:
            self._finish(False)
            return
        # Double the contention window and retry at a lower (never higher)
        # coded rate after repeated failures.
        self._cw = min(self._cw * 2 + 1, CW_MAX)
        if job.attempts >= 2:
            job.rate = next_lower_rate(job.rate, self._owner.allowed_rates)
        self._begin_access()
