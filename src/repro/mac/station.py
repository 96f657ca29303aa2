"""Wireless interfaces: the shared receive path and the client station.

A :class:`WirelessInterface` is anything with a MAC address and a radio:
it attaches to the medium, classifies each air event with its own
:class:`~repro.phy.reception.ReceptionModel`, maintains the NAV ("each node
will defer transmission until this time has passed" — Section 2), answers
unicast frames with ACKs after SIFS, and owns a :class:`~repro.mac.dcf.Dcf`
transmit engine.

:class:`Station` is a client: it scans (probe requests on each monitored
channel, which is how APs and the Section 7.3 analysis learn an 802.11b
client is in range), authenticates and associates with its AP, then carries
IP payloads for the transport substrate.  Stations are either 802.11g
(OFDM-capable) or legacy 802.11b — the mix that drives protection mode.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

from ..dot11.address import MacAddress
from ..dot11.channels import Channel, ORTHOGONAL_CHANNELS
from ..dot11.constants import SEQ_MODULO, SIFS_US
from ..dot11.frame import (
    Frame,
    FrameType,
    beacon_advertises_protection,
    make_ack,
    make_assoc_request,
    make_auth,
    make_data,
    make_probe_request,
)
from ..dot11.rates import (
    ALL_RATES,
    B_RATES,
    G_RATES,
    PhyRate,
    RATE_1,
    RATE_SNR_THRESHOLDS_DB,
)
from ..dot11.serialize import frame_to_bytes
from ..phy.propagation import Point
from ..phy.reception import (
    DEFAULT_NOISE_FLOOR_DBM,
    ReceptionModel,
    ReceptionOutcome,
)
from ..sim.kernel import Kernel
from .dcf import Dcf, TxJob
from .medium import Medium, Transmission

#: SNR headroom demanded above a rate's threshold before selecting it.
RATE_SELECTION_MARGIN_DB = 4.0

#: Receive gain of production stations and APs over the monitors' rubber
#: duck antennas: diversity antennas plus better front ends.  This is what
#: lets an AP decode marginal client frames that no monitor captures
#: (Section 6's imperfect client coverage).
STATION_RX_GAIN_DB = 7.0

#: How long a station waits on each channel while scanning.
SCAN_DWELL_US = 30_000

#: Handshake stall timeout before the station restarts association.
ASSOC_TIMEOUT_US = 1_000_000


def select_rate(
    rssi_dbm: float,
    allowed: Tuple[PhyRate, ...],
    noise_floor_dbm: float = DEFAULT_NOISE_FLOOR_DBM,
) -> PhyRate:
    """Highest allowed rate with comfortable SNR margin at ``rssi_dbm``."""
    snr = rssi_dbm - noise_floor_dbm
    eligible = [
        r
        for r in allowed
        if RATE_SNR_THRESHOLDS_DB[r.mbps] + RATE_SELECTION_MARGIN_DB <= snr
    ]
    if not eligible:
        return min(allowed, key=lambda r: r.mbps)
    return max(eligible, key=lambda r: r.mbps)


class WirelessInterface:
    """Base class: one radio with a MAC address on one channel."""

    def __init__(
        self,
        kernel: Kernel,
        medium: Medium,
        mac: MacAddress,
        position: Point,
        channel: Channel,
        tx_power_dbm: float,
        rng: np.random.Generator,
        supports_ofdm: bool = True,
    ) -> None:
        self.kernel = kernel
        self.medium = medium
        self.mac = mac
        self.position = position
        self.channel = channel
        self.tx_power_dbm = tx_power_dbm
        self.supports_ofdm = supports_ofdm
        self.nav_until_us = 0
        self.reception = ReceptionModel(rng=rng, rx_gain_db=STATION_RX_GAIN_DB)
        self.dcf = Dcf(kernel, medium, self, rng)
        self._seq = int(rng.integers(0, SEQ_MODULO))
        medium.attach(self)

    # --- identity ---------------------------------------------------------

    @property
    def allowed_rates(self) -> Tuple[PhyRate, ...]:
        return ALL_RATES if self.supports_ofdm else B_RATES

    def as_receiver(self) -> "WirelessInterface":
        return self

    def next_seq(self) -> int:
        seq = self._seq
        self._seq = (self._seq + 1) % SEQ_MODULO
        return seq

    # --- receive path ---------------------------------------------------------

    def on_air_event(
        self,
        tx: Transmission,
        rssi_dbm: float,
        interferer_levels_dbm: Tuple[float, ...],
    ) -> None:
        outcome = self.reception.receive(rssi_dbm, tx.rate, interferer_levels_dbm)
        if outcome is not ReceptionOutcome.DECODED:
            return
        frame = tx.frame
        if frame.addr1 == self.mac:
            self._receive_own(frame, rssi_dbm, tx)
        else:
            # Virtual carrier sense: defer for the frame's Duration field.
            if frame.duration_us > 0:
                self.nav_until_us = max(
                    self.nav_until_us, self.kernel.now_us + frame.duration_us
                )
            self.handle_overheard(frame, rssi_dbm, tx)

    def _receive_own(self, frame: Frame, rssi_dbm: float, tx: Transmission) -> None:
        if frame.ftype is FrameType.ACK:
            self.dcf.notify_ack_received()
            return
        if frame.expects_ack:
            self._send_ack_after_sifs(frame, tx)
        self.handle_frame(frame, rssi_dbm, tx)

    def _send_ack_after_sifs(self, frame: Frame, tx: Transmission) -> None:
        """ACKs bypass DCF: they follow the frame after exactly SIFS."""
        from ..dot11.rates import ack_rate_for

        assert frame.addr2 is not None
        ack = make_ack(frame.addr2)
        self.kernel.after(
            SIFS_US,
            lambda: self.medium.transmit(
                frame=ack,
                frame_bytes=frame_to_bytes(ack),
                rate=ack_rate_for(tx.rate),
                channel=self.channel,
                position=self.position,
                power_dbm=self.tx_power_dbm,
                transmitter_id=str(self.mac),
                sender=self,
            ),
        )

    # --- subclass hooks ----------------------------------------------------------

    def handle_frame(self, frame: Frame, rssi_dbm: float, tx: Transmission) -> None:
        """A decoded frame addressed to this interface (non-ACK)."""

    def handle_overheard(
        self, frame: Frame, rssi_dbm: float, tx: Transmission
    ) -> None:
        """A decoded frame addressed elsewhere (broadcast or other station)."""


class Station(WirelessInterface):
    """A wireless client."""

    def __init__(
        self,
        kernel: Kernel,
        medium: Medium,
        mac: MacAddress,
        position: Point,
        tx_power_dbm: float,
        rng: np.random.Generator,
        ap: "object",
        supports_ofdm: bool = True,
        start_us: int = 0,
        rescan_interval_us: int = 0,
        probe_burst: int = 1,
        scan_sweep: bool = False,
    ) -> None:
        super().__init__(
            kernel,
            medium,
            mac,
            position,
            ap.channel,
            tx_power_dbm,
            rng,
            supports_ofdm,
        )
        self._rng = rng
        self.ap = ap
        self.associated = False
        self.protection_active = False   # learned from AP beacons
        self._ap_rssi_dbm: Optional[float] = None
        self._assoc_deadline: Optional[int] = None
        #: Upper-layer receive hook (installed by the transport substrate).
        self.packet_sink: Optional[Callable[[bytes], None]] = None
        self._pending_payloads: List[bytes] = []
        self._on_associated: List[Callable[[], None]] = []
        self._rescan_interval_us = rescan_interval_us
        self._probe_burst = probe_burst
        self._scan_sweep = scan_sweep
        # Sweep-in-flight bookkeeping: the id invalidates pending sweep
        # continuations (a roam mid-sweep must not have a stale dwell
        # callback drag the radio back off the new AP's channel), and the
        # active flag keeps rescans shorter than a full sweep (~3 dwells)
        # from starting overlapping sweeps that fight over the channel.
        self._sweep_id = 0
        self._sweep_active = False
        kernel.at(start_us, self._begin_scan)
        if rescan_interval_us > 0:
            kernel.at(start_us + rescan_interval_us, self._background_rescan)

    # --- association -----------------------------------------------------

    def when_associated(self, callback: Callable[[], None]) -> None:
        if self.associated:
            callback()
        else:
            self._on_associated.append(callback)

    def _begin_scan(self) -> None:
        """Probe each monitored channel, then associate with our AP."""
        channels = [Channel(n) for n in ORTHOGONAL_CHANNELS]

        def probe(index: int) -> None:
            if index >= len(channels):
                self.channel = self.ap.channel
                self._begin_handshake()
                return
            self.channel = channels[index]
            frame = make_probe_request(
                self.mac, self.next_seq(), supports_ofdm=self.supports_ofdm
            )
            self.dcf.enqueue(TxJob(frame, RATE_1))
            self.kernel.after(SCAN_DWELL_US, lambda: probe(index + 1))

        probe(0)

    def _background_rescan(self) -> None:
        """Periodic background probe, as real clients emit while roaming.

        By default it stays on the serving channel (no dwell elsewhere, so
        traffic is not disrupted); in-range APs answer with probe
        responses — the signal the Section 7.3 protection analysis uses to
        estimate client range.  With ``scan_sweep`` the rescan instead
        dwells briefly on every monitored channel (as aggressive real
        clients do), bursting ``probe_burst`` probes on each — off-channel
        time loses downlink frames, and the broadcast probes land in every
        channel's monitor traces, densifying bootstrap's reference sets.
        """
        if self._sweep_active:
            pass  # previous sweep still dwelling; skip this rescan tick
        elif self._scan_sweep and self.associated:
            self._sweep_active = True
            self._sweep_channels(self._sweep_id, 0)
        else:
            self._emit_probe_burst()
        self.kernel.after(self._rescan_interval_us, self._background_rescan)

    def _emit_probe_burst(self) -> None:
        for _ in range(self._probe_burst):
            frame = make_probe_request(
                self.mac, self.next_seq(), supports_ofdm=self.supports_ofdm
            )
            self.dcf.enqueue(TxJob(frame, RATE_1))

    def _sweep_channels(self, sweep_id: int, index: int) -> None:
        """Dwell on each monitored channel in turn, probing as we go."""
        if sweep_id != self._sweep_id:
            return  # cancelled by a roam; it already restored the channel
        channels = [Channel(n) for n in ORTHOGONAL_CHANNELS]
        if index >= len(channels):
            self._sweep_active = False
            self.channel = self.ap.channel
            return
        self.channel = channels[index]
        self._emit_probe_burst()
        self.kernel.after(
            SCAN_DWELL_US, lambda: self._sweep_channels(sweep_id, index + 1)
        )

    # --- roaming ----------------------------------------------------------

    def roam_to(self, position: Point, ap: "object") -> None:
        """Move to ``position`` and (re)associate with ``ap``.

        Models a laptop carried between coverage areas: the radio follows
        its new strongest AP, tearing down the old association and running
        the auth/assoc handshake again on the new channel.  Upper-layer
        payloads sent meanwhile queue until the new association completes
        (TCP retransmissions cover the gap, exactly as on a real handoff).
        """
        self.position = position
        if self._sweep_active:
            # Abandon any in-flight channel sweep: its pending dwell
            # callbacks must not drag the radio back off the (possibly
            # new) serving channel mid-handshake.
            self._sweep_id += 1
            self._sweep_active = False
            self.channel = self.ap.channel
        if ap is self.ap and self.associated:
            return
        self.ap = ap
        self.associated = False
        self._ap_rssi_dbm = None
        self.channel = ap.channel
        self._begin_handshake()

    def _begin_handshake(self) -> None:
        self._assoc_deadline = self.kernel.now_us + ASSOC_TIMEOUT_US
        self.kernel.at(self._assoc_deadline, self._check_assoc_timeout)
        auth = make_auth(self.mac, self.ap.mac, self.next_seq(), step=1)
        self.dcf.enqueue(TxJob(auth, self._management_rate()))

    def _check_assoc_timeout(self) -> None:
        if self.associated or self._assoc_deadline is None:
            return
        if self.kernel.now_us >= self._assoc_deadline:
            self._begin_handshake()

    def _management_rate(self) -> PhyRate:
        if self._ap_rssi_dbm is None:
            return RATE_1
        return select_rate(self._ap_rssi_dbm, B_RATES)

    def data_rate(self) -> PhyRate:
        """Rate for the next data frame, from the running AP RSSI estimate."""
        if self._ap_rssi_dbm is None:
            return RATE_1
        if self.supports_ofdm:
            return select_rate(self._ap_rssi_dbm, G_RATES)
        return select_rate(self._ap_rssi_dbm, B_RATES)

    # --- frame handling -------------------------------------------------------

    def handle_frame(self, frame: Frame, rssi_dbm: float, tx: Transmission) -> None:
        if frame.addr2 == self.ap.mac:
            self._ap_rssi_dbm = rssi_dbm
        if frame.ftype is FrameType.AUTH and not self.associated:
            assoc = make_assoc_request(
                self.mac, self.ap.mac, self.next_seq(), self.supports_ofdm
            )
            self.dcf.enqueue(TxJob(assoc, self._management_rate()))
        elif frame.ftype is FrameType.ASSOC_RESPONSE and not self.associated:
            self.associated = True
            self._assoc_deadline = None
            for callback in self._on_associated:
                callback()
            self._on_associated.clear()
            self._flush_pending()
        elif frame.ftype is FrameType.DATA:
            if self.packet_sink is not None:
                self.packet_sink(frame.body)

    def handle_overheard(
        self, frame: Frame, rssi_dbm: float, tx: Transmission
    ) -> None:
        if frame.ftype is FrameType.BEACON and frame.addr2 == self.ap.mac:
            self._ap_rssi_dbm = rssi_dbm
            self.protection_active = beacon_advertises_protection(frame)

    # --- transmit path ------------------------------------------------------------

    def send_payload(self, payload: bytes) -> None:
        """Carry one IP packet uplink to the AP (queued until associated)."""
        if not self.associated:
            self._pending_payloads.append(payload)
            return
        rate = self.data_rate()
        frame = make_data(
            self.mac,
            self.ap.mac,
            self.ap.mac,
            seq=self.next_seq(),
            body=payload,
            to_ds=True,
        )
        protect = rate.is_ofdm and self.protection_active
        self.dcf.enqueue(TxJob(frame, rate, protect=protect))

    def _flush_pending(self) -> None:
        pending, self._pending_payloads = self._pending_payloads, []
        for payload in pending:
            self.send_payload(payload)
