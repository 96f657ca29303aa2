"""The shared wireless medium.

"Wireless is fundamentally a broadcast channel, multiple in-range receivers
can potentially record each transmission" (Section 4) — this module is that
channel.  Every transmission is delivered to every attached receiver whose
channel overlaps, with per-receiver RSSI from the propagation model and
per-receiver interference from whatever else was on the air at the same
time.  Because "propagation delay is effectively instantaneous", all
receivers see a transmission at the same true time, exactly the assumption
Jigsaw's synchronization builds on.

The medium also doubles as the simulation's ground truth: it keeps the
authoritative list of every transmission ever made, which the coverage and
interference experiments compare Jigsaw's output against.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import attrgetter
from typing import List, Optional, Protocol, Sequence, Tuple

from ..dot11.channels import Channel, OVERLAP
from ..dot11.frame import Frame
from ..dot11.rates import PhyRate
from ..phy.noisefloor import BroadbandInterferer, NEGLIGIBLE_DBM, active_sources
from ..phy.propagation import Point, PropagationModel
from ..phy.reception import CARRIER_SENSE_DBM
from ..sim.kernel import Kernel

#: How long a finished transmission stays a candidate interferer: longer
#: than any frame, so a late-starting overlap still sees it.
RECENT_HORIZON_US = 20_000


#: Sort key of the recent list, which completions keep in end-time order.
_END_US = attrgetter("end_us")


def _coupling_db(coupling: float) -> Optional[float]:
    """What a received level gains from a channel coupling, in dB.

    ``None`` for orthogonal channels, which deliver nothing; ``0.0`` for
    co-channel, which is left unadded.
    """
    if coupling <= 0.0:
        return None
    if coupling < 1.0:
        return 10.0 * math.log10(coupling)
    return 0.0


#: ``_COUPLING_DB[a][b]``: :func:`_coupling_db` of ``OVERLAP[a][b]``, so
#: ``10·log10`` is taken once per channel pair, not per delivery.
#: Symmetric, like the overlap, so a transmission's row serves all of its
#: receivers.
_COUPLING_DB: Tuple[Tuple[Optional[float], ...], ...] = tuple(
    tuple(_coupling_db(coupling) for coupling in row) for row in OVERLAP
)


@dataclass(frozen=True)
class Transmission:
    """One physical transmission: a frame on the air.

    ``txid`` is a globally unique ground-truth identifier; the evaluation
    joins monitor captures back to transmissions through it (the real system
    has no such oracle — that is the point of building one).
    """

    txid: int
    frame: Frame
    frame_bytes: bytes
    rate: PhyRate
    channel: Channel
    start_us: int
    duration_us: int
    tx_position: Point
    tx_power_dbm: float
    transmitter_id: str

    @property
    def end_us(self) -> int:
        return self.start_us + self.duration_us


class Receiver(Protocol):
    """Anything attached to the medium: stations, APs, monitor radios."""

    position: Point
    channel: Channel

    def on_air_event(
        self,
        tx: Transmission,
        rssi_dbm: float,
        interferer_levels_dbm: Tuple[float, ...],
    ) -> None:
        """Called at transmission end with receiver-local signal levels."""


class Medium:
    """Per-building broadcast medium across all channels."""

    def __init__(
        self,
        kernel: Kernel,
        propagation: PropagationModel,
        interferers: Sequence[BroadbandInterferer] = (),
    ) -> None:
        self._kernel = kernel
        self._propagation = propagation
        self._interferers = tuple(interferers)
        self._receivers: List[Receiver] = []
        self._active: List[Transmission] = []
        #: Transmissions that ended recently, in end-time order; kept
        #: ``RECENT_HORIZON_US`` back so late-starting overlaps still see
        #: them as interferers.
        self._recent: List[Transmission] = []
        self._txid = itertools.count(1)
        #: Ground truth: every transmission, in start order.
        self.history: List[Transmission] = []

    # --- attachment -----------------------------------------------------

    def attach(self, receiver: Receiver) -> None:
        self._receivers.append(receiver)

    @property
    def propagation(self) -> PropagationModel:
        return self._propagation

    # --- transmission ----------------------------------------------------

    def transmit(
        self,
        frame: Frame,
        frame_bytes: bytes,
        rate: PhyRate,
        channel: Channel,
        position: Point,
        power_dbm: float,
        transmitter_id: str,
        sender: Optional[Receiver] = None,
    ) -> Transmission:
        """Put a frame on the air now; deliveries fire at transmission end."""
        from ..dot11.rates import frame_airtime_us

        duration = frame_airtime_us(frame.size_bytes, rate)
        tx = Transmission(
            txid=next(self._txid),
            frame=frame,
            frame_bytes=frame_bytes,
            rate=rate,
            channel=channel,
            start_us=self._kernel.now_us,
            duration_us=duration,
            tx_position=position,
            tx_power_dbm=power_dbm,
            transmitter_id=transmitter_id,
        )
        self._active.append(tx)
        self.history.append(tx)
        self._kernel.at(tx.end_us, lambda: self._complete(tx, sender))
        return tx

    def _complete(self, tx: Transmission, sender: Optional[Receiver]) -> None:
        """Deliver ``tx`` to every receiver whose channel overlaps it.

        Everything that depends only on the transmission is looked up
        once here: the coupling row of each overlapping transmission's
        channel, its path-loss row, and which broadband sources are on.
        Each receiver's channel and position are read at its turn, since
        stations retune during scans and move when they roam.
        """
        active = self._active
        for index, other in enumerate(active):
            if other is tx:
                del active[index]
                break
        recent = self._recent
        recent.append(tx)
        # Completions append in end-time order, so what has fallen behind
        # the horizon is a prefix, and so is what ended before ``tx`` began.
        del recent[
            : bisect_left(
                recent, self._kernel.now_us - RECENT_HORIZON_US, key=_END_US
            )
        ]
        start_us = tx.start_us
        end_us = start_us + tx.duration_us
        candidates = itertools.chain(
            active,
            itertools.islice(
                recent, bisect_right(recent, start_us, key=_END_US), None
            ),
        )
        propagation = self._propagation
        path_loss_db = propagation.path_loss_db
        overlapping = [
            (
                _COUPLING_DB[other.channel.number],
                other.tx_power_dbm,
                propagation.losses_from(other.tx_position),
                other.tx_position,
            )
            for other in candidates
            if other is not tx
            and other.start_us < end_us
            and start_us < other.start_us + other.duration_us
        ]
        ambient = [
            (
                source.power_dbm,
                propagation.losses_from(source.position),
                source.position,
            )
            for source in active_sources(self._interferers, start_us)
        ]
        couplings = _COUPLING_DB[tx.channel.number]
        power = tx.tx_power_dbm
        tx_position = tx.tx_position
        losses = propagation.losses_from(tx_position)
        for receiver in self._receivers:
            if receiver is sender:
                continue
            channel = receiver.channel.number
            coupling_db = couplings[channel]
            if coupling_db is None:
                continue
            position = receiver.position
            loss = losses.get(position)
            if loss is None:
                loss = path_loss_db(tx_position, position)
            rssi = power - loss
            if coupling_db:
                rssi += coupling_db
            levels = []
            for other_couplings, other_power, other_losses, other_position in (
                overlapping
            ):
                coupling_db = other_couplings[channel]
                if coupling_db is None:
                    continue
                loss = other_losses.get(position)
                if loss is None:
                    loss = path_loss_db(other_position, position)
                level = other_power - loss
                if coupling_db:
                    level += coupling_db
                levels.append(level)
            for source_power, source_losses, source_position in ambient:
                loss = source_losses.get(position)
                if loss is None:
                    loss = path_loss_db(source_position, position)
                level = source_power - loss
                if level > NEGLIGIBLE_DBM:
                    levels.append(level)
            receiver.on_air_event(tx, rssi, tuple(levels))

    # --- carrier sense ----------------------------------------------------

    def busy_until(
        self,
        channel: Channel,
        position: Point,
        threshold_dbm: float = CARRIER_SENSE_DBM,
    ) -> int:
        """Latest end time of any on-air transmission audible at ``position``.

        Position-dependent: a distant transmitter below the carrier-sense
        threshold is invisible here — the hidden-terminal situation whose
        interference Section 7.2 quantifies.
        """
        couplings = _COUPLING_DB[channel.number]
        path_loss_db = self._propagation.path_loss_db
        latest = 0
        for tx in self._active:
            coupling_db = couplings[tx.channel.number]
            if coupling_db is None:
                continue
            rssi = tx.tx_power_dbm - path_loss_db(tx.tx_position, position)
            if coupling_db:
                rssi += coupling_db
            if rssi >= threshold_dbm:
                latest = max(latest, tx.end_us)
        return latest

    def is_busy(
        self,
        channel: Channel,
        position: Point,
        threshold_dbm: float = CARRIER_SENSE_DBM,
    ) -> bool:
        return self.busy_until(channel, position, threshold_dbm) > self._kernel.now_us
