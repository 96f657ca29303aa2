"""Monitor radios and sensor pods.

A :class:`MonitorRadio` is a purely passive medium attachment: it never
transmits, it classifies every audible event with its own reception model
and appends a :class:`TraceRecord` timestamped by its monitor's (shared,
imperfect) clock.  A :class:`SensorPod` is the paper's deployment unit —
"a pair of monitors set a meter apart", each monitor carrying two radios
slaved to a single clock (Section 3.2/3.3), four radios total covering the
non-overlapping channels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..dot11.channels import Channel
from ..dot11.constants import CAPTURE_SNAP_BYTES
from ..jtrace.io import RadioTrace
from ..jtrace.records import RecordKind, TraceRecord
from ..mac.medium import Medium, Transmission
from ..phy.propagation import Point
from ..phy.reception import ReceptionModel, ReceptionOutcome
from ..sim.kernel import Kernel
from ..sim.scenario import ClockConfig
from .clock import RadioClock

#: Channel pairs per monitor: monitor A covers (1, 6), monitor B (6, 11).
#: The shared channel-6 radios give bootstrap synchronization a bridge
#: between pods, and each monitor's shared clock bridges across channels —
#: the mechanism Section 4.1 describes.  (The paper's pods tune four
#: distinct frequencies; our production network only occupies 1/6/11, so a
#: second channel-6 vantage replaces the scanning frequency.)
DEFAULT_MONITOR_CHANNELS: Tuple[Tuple[int, int], Tuple[int, int]] = (
    (1, 6),
    (6, 11),
)


class MonitorRadio:
    """One passive capture radio."""

    def __init__(
        self,
        kernel: Kernel,
        medium: Medium,
        radio_id: int,
        position: Point,
        channel: Channel,
        clock: "RadioClock",
        rng: np.random.Generator,
    ) -> None:
        self.kernel = kernel
        self.radio_id = radio_id
        self.position = position
        self.channel = channel
        self.clock = clock
        self.reception = ReceptionModel(rng=rng)
        self.trace = RadioTrace(radio_id=radio_id, channel=channel.number)
        medium.attach(self)

    def on_air_event(
        self,
        tx: Transmission,
        rssi_dbm: float,
        interferer_levels_dbm: Tuple[float, ...],
    ) -> None:
        outcome = self.reception.receive(rssi_dbm, tx.rate, interferer_levels_dbm)
        if not outcome.observed:
            return
        local_ts = self.clock.local_time_us(self.kernel.now_us)
        if outcome is ReceptionOutcome.DECODED:
            record = self._valid_record(tx, rssi_dbm, local_ts)
        elif outcome is ReceptionOutcome.CORRUPT:
            record = self._corrupt_record(tx, rssi_dbm, local_ts)
        else:
            record = self._phy_error_record(tx, rssi_dbm, local_ts)
        self.trace.append(record)

    def drain_captured(self) -> List[TraceRecord]:
        """Hand over (and clear) the records captured since the last drain.

        The streaming scenario feed (:mod:`repro.sim.stream`) moves
        records out of the radio as the simulation advances, so a
        streamed run never holds a second materialized copy of the trace:
        ownership passes to the consuming
        :class:`~repro.jtrace.io.RadioTrace` that reads the feed.
        """
        drained = self.trace.records
        if not drained:
            return []
        self.trace.records = []
        return drained

    # --- record builders ---------------------------------------------------

    def _valid_record(
        self, tx: Transmission, rssi_dbm: float, local_ts: int
    ) -> TraceRecord:
        raw = tx.frame_bytes
        return TraceRecord(
            radio_id=self.radio_id,
            timestamp_us=local_ts,
            kind=RecordKind.VALID,
            channel=self.channel.number,
            rate_mbps=tx.rate.mbps,
            rssi_dbm=rssi_dbm,
            frame_len=len(raw),
            fcs=int.from_bytes(raw[-4:], "little"),
            snap=raw[:CAPTURE_SNAP_BYTES],
            duration_us=tx.duration_us,
            truth_txid=tx.txid,
        )

    def _corrupt_record(
        self, tx: Transmission, rssi_dbm: float, local_ts: int
    ) -> TraceRecord:
        damaged = self.reception.corrupt_bytes(tx.frame_bytes)
        # A corrupt capture's FCS field is whatever damaged bytes sit at the
        # tail — it will not match the content, which is the point.
        tail = damaged[-4:] if len(damaged) >= 4 else b"\x00\x00\x00\x00"
        return TraceRecord(
            radio_id=self.radio_id,
            timestamp_us=local_ts,
            kind=RecordKind.CORRUPT,
            channel=self.channel.number,
            rate_mbps=tx.rate.mbps,
            rssi_dbm=rssi_dbm,
            frame_len=len(damaged),
            fcs=int.from_bytes(tail, "little"),
            snap=damaged[:CAPTURE_SNAP_BYTES],
            duration_us=tx.duration_us,
            truth_txid=tx.txid,
        )

    def _phy_error_record(
        self, tx: Transmission, rssi_dbm: float, local_ts: int
    ) -> TraceRecord:
        return TraceRecord(
            radio_id=self.radio_id,
            timestamp_us=local_ts,
            kind=RecordKind.PHY_ERROR,
            channel=self.channel.number,
            rate_mbps=tx.rate.mbps,
            rssi_dbm=rssi_dbm,
            frame_len=0,
            fcs=0,
            snap=b"",
            duration_us=tx.duration_us,
            truth_txid=tx.txid,
        )


@dataclass
class SensorPod:
    """Two monitors, four radios, one vantage point."""

    pod_id: int
    position: Point
    radios: List[MonitorRadio]
    clocks: List[RadioClock]

    @property
    def traces(self) -> List[RadioTrace]:
        return [radio.trace for radio in self.radios]


def build_pod(
    kernel: Kernel,
    medium: Medium,
    pod_id: int,
    position: Point,
    clock_config: ClockConfig,
    rng: np.random.Generator,
    first_radio_id: int,
    monitor_channels: Sequence[Tuple[int, int]] = DEFAULT_MONITOR_CHANNELS,
) -> SensorPod:
    """Assemble one pod: 2 monitors x 2 radios, one clock per monitor.

    The two monitors sit a meter apart (antenna separation for active
    experiments; a single vantage point for passive capture).
    """
    radios: List[MonitorRadio] = []
    clocks: List[RadioClock] = []
    radio_id = first_radio_id
    for monitor_index, channels in enumerate(monitor_channels):
        clock = RadioClock(rng, clock_config)
        clocks.append(clock)
        monitor_pos = (
            position[0] + monitor_index * 1.0,
            position[1],
            position[2],
        )
        for channel_number in channels:
            radios.append(
                MonitorRadio(
                    kernel,
                    medium,
                    radio_id,
                    monitor_pos,
                    Channel(channel_number),
                    clock,
                    np.random.default_rng(rng.integers(0, 2**63)),
                )
            )
            radio_id += 1
    return SensorPod(pod_id, position, radios, clocks)
