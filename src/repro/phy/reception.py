"""Frame reception model: RSSI + interference -> decode / corrupt / miss.

The paper's monitors observe four event classes, and "over 47% of these
events are physical or CRC errors ... given transmissions observed by
distant monitors just beyond reception range, the presence of both
co-channel interference (hidden terminals) and broadband interference"
(Section 7.1).  The reception model reproduces exactly those classes:

``DECODED``     frame received, FCS valid;
``CORRUPT``     frame detected and captured, but bytes damaged (CRC error);
``PHY_ERROR``   energy detected / preamble lock failed — no frame contents;
``MISSED``      below sensitivity, nothing recorded.

Outcomes are a deterministic function of SINR and a seeded RNG, so runs are
reproducible.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..dot11.rates import PhyRate, RATE_SNR_THRESHOLDS_DB

#: Thermal noise floor for a 22 MHz channel plus typical receiver noise
#: figure: -174 dBm/Hz + 10*log10(22e6) ~ -100.6, +7 dB NF.
DEFAULT_NOISE_FLOOR_DBM = -94.0

#: Below this RSSI the radio does not register the transmission at all.
SENSITIVITY_DBM = -92.0

#: Energy above this at an idle receiver marks the medium busy (carrier
#: sense / clear channel assessment).
CARRIER_SENSE_DBM = -82.0

#: Width of the logistic success curve around the per-rate SNR threshold.
SNR_CURVE_WIDTH_DB = 2.0

#: SINR margin below which a detected-but-undecodable event is logged as a
#: PHY error instead of a corrupt frame capture.
PHY_ERROR_MARGIN_DB = 6.0


class ReceptionOutcome(enum.Enum):
    DECODED = "decoded"
    CORRUPT = "corrupt"
    PHY_ERROR = "phy_error"
    MISSED = "missed"

    @property
    def observed(self) -> bool:
        """Whether the capture pipeline records anything for this outcome."""
        return self is not ReceptionOutcome.MISSED


def combine_power_dbm(levels_dbm: Sequence[float]) -> float:
    """Sum powers expressed in dBm (log-domain addition)."""
    if not levels_dbm:
        return -math.inf
    total_mw = sum(10.0 ** (level / 10.0) for level in levels_dbm)
    return 10.0 * math.log10(total_mw)


def sinr_db(
    signal_dbm: float,
    interferers_dbm: Sequence[float],
    noise_floor_dbm: float = DEFAULT_NOISE_FLOOR_DBM,
) -> float:
    """Signal-to-interference-plus-noise ratio in dB."""
    noise_mw = 10.0 ** (noise_floor_dbm / 10.0)
    interference_mw = sum(10.0 ** (level / 10.0) for level in interferers_dbm)
    return signal_dbm - 10.0 * math.log10(noise_mw + interference_mw)


def decode_probability(snr: float, rate: PhyRate) -> float:
    """Probability that a frame at ``rate`` decodes cleanly at ``snr`` dB.

    A logistic curve centered on the per-rate threshold: ~50% at threshold,
    saturating within a few dB either side — the standard shape of measured
    frame-delivery-vs-SNR curves.
    """
    threshold = RATE_SNR_THRESHOLDS_DB[rate.mbps]
    x = (snr - threshold) / SNR_CURVE_WIDTH_DB
    return 1.0 / (1.0 + math.exp(-x))


@dataclass
class ReceptionModel:
    """Stateful reception decisions driven by a seeded RNG.

    ``rx_gain_db`` models the receive antenna/front-end advantage of
    production equipment over the monitors' 2-3 dBi rubber ducks
    (Section 3.2).  Gain lifts both signal and interference, so it helps
    only against the thermal noise floor — marginal frames a production AP
    still decodes can be lost on every monitor, which is what gives the
    coverage evaluation of Section 6 its client-side tail.
    """

    rng: np.random.Generator
    noise_floor_dbm: float = DEFAULT_NOISE_FLOOR_DBM
    sensitivity_dbm: float = SENSITIVITY_DBM
    rx_gain_db: float = 0.0

    def receive(
        self,
        signal_dbm: float,
        rate: PhyRate,
        interferers_dbm: Sequence[float] = (),
    ) -> ReceptionOutcome:
        """Classify one reception attempt."""
        signal_dbm = signal_dbm + self.rx_gain_db
        if interferers_dbm and self.rx_gain_db:
            interferers_dbm = [
                level + self.rx_gain_db for level in interferers_dbm
            ]
        if signal_dbm < self.sensitivity_dbm:
            return ReceptionOutcome.MISSED
        snr = sinr_db(signal_dbm, interferers_dbm, self.noise_floor_dbm)
        p_ok = decode_probability(snr, rate)
        if self.rng.random() < p_ok:
            return ReceptionOutcome.DECODED
        # Failed decode: deep-failure events never achieved frame lock and
        # surface as PHY errors; marginal ones are captured with a bad CRC.
        threshold = RATE_SNR_THRESHOLDS_DB[rate.mbps]
        if snr < threshold - PHY_ERROR_MARGIN_DB:
            return ReceptionOutcome.PHY_ERROR
        return ReceptionOutcome.CORRUPT

    def corrupt_bytes(self, raw: bytes, max_flips: int = 8) -> bytes:
        """Damage a captured frame the way marginal receptions do.

        Flips a handful of bytes at random positions (biased toward the
        tail, where long frames usually die), sometimes truncating.  The
        result intentionally fails the FCS check.
        """
        if not raw:
            return raw
        damaged = bytearray(raw)
        if len(damaged) > 16 and self.rng.random() < 0.3:
            # Truncation: reception died partway through the frame.
            cut = int(self.rng.integers(12, len(damaged)))
            damaged = damaged[:cut]
        n_flips = int(self.rng.integers(1, max_flips + 1))
        positions = self.rng.integers(0, len(damaged), size=n_flips)
        # Bias damage toward the tail so headers frequently survive, letting
        # the unifier's transmitter-address matching work as in the paper.
        for pos in positions:
            biased = min(len(damaged) - 1, int(pos * 0.5 + len(damaged) * 0.5))
            damaged[biased] ^= int(self.rng.integers(1, 256))
        return bytes(damaged)
