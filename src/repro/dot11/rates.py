"""PHY rates and airtime arithmetic for 802.11b/g.

Every client "is responsible for choosing the rate to transmit each frame
and this choice is encoded in the PLCP header at a 'slow' rate" (Section 2).
Airtime math matters twice in this reproduction:

* the MAC simulator must occupy the medium for the correct duration, and
* the duration *field* carried in CTS/DATA frames is what the link-layer
  reconstruction uses "to deduce the future time in which an ACK, if sent,
  must have been received" (Section 5.1).

Footnote 7 of the paper works an explicit protection-mode overhead example;
:func:`protection_overhead_factor` reproduces that arithmetic and is checked
against the paper's 1.98 figure in the test suite.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence, Tuple

from .constants import (
    ACK_FRAME_BYTES,
    CTS_FRAME_BYTES,
    OFDM_SIGNAL_EXTENSION_US,
    OFDM_SYMBOL_US,
    PLCP_LONG_US,
    PLCP_OFDM_US,
    PLCP_SHORT_US,
    SIFS_US,
)


class Modulation(enum.Enum):
    """Physical-layer family: DSSS/CCK (802.11b) or ERP-OFDM (802.11g)."""

    CCK = "cck"
    OFDM = "ofdm"


@dataclass(frozen=True)
class PhyRate:
    """A single PHY rate: coded bit rate plus the modulation that carries it."""

    mbps: float
    modulation: Modulation

    @property
    def bits_per_us(self) -> float:
        return self.mbps

    @property
    def is_ofdm(self) -> bool:
        return self.modulation is Modulation.OFDM

    @property
    def is_cck(self) -> bool:
        return self.modulation is Modulation.CCK

    def __str__(self) -> str:
        mbps = int(self.mbps) if self.mbps == int(self.mbps) else self.mbps
        return f"{mbps}Mbps/{self.modulation.value}"


# --- rate tables -------------------------------------------------------------

RATE_1 = PhyRate(1.0, Modulation.CCK)
RATE_2 = PhyRate(2.0, Modulation.CCK)
RATE_5_5 = PhyRate(5.5, Modulation.CCK)
RATE_11 = PhyRate(11.0, Modulation.CCK)

RATE_6 = PhyRate(6.0, Modulation.OFDM)
RATE_9 = PhyRate(9.0, Modulation.OFDM)
RATE_12 = PhyRate(12.0, Modulation.OFDM)
RATE_18 = PhyRate(18.0, Modulation.OFDM)
RATE_24 = PhyRate(24.0, Modulation.OFDM)
RATE_36 = PhyRate(36.0, Modulation.OFDM)
RATE_48 = PhyRate(48.0, Modulation.OFDM)
RATE_54 = PhyRate(54.0, Modulation.OFDM)

#: 802.11b rate set (CCK, coded rates up to 11 Mbps — Section 2).
B_RATES: Tuple[PhyRate, ...] = (RATE_1, RATE_2, RATE_5_5, RATE_11)

#: 802.11g OFDM rate set (coded up to 54 Mbps — Section 2).
G_RATES: Tuple[PhyRate, ...] = (
    RATE_6, RATE_9, RATE_12, RATE_18, RATE_24, RATE_36, RATE_48, RATE_54,
)

#: Full b/g rate set in ascending order.
ALL_RATES: Tuple[PhyRate, ...] = tuple(
    sorted(B_RATES + G_RATES, key=lambda r: r.mbps)
)

#: Minimum SNR (dB) required to decode each rate with high probability.
#: Derived from standard receiver-sensitivity ladders; the reception model
#: perturbs around these thresholds.  Keyed by the rate's coded Mbps, which
#: is unique across the b/g rate set: the reception model reads a
#: threshold for every frame at every receiver, and a float key hashes
#: without calling back into Python the way a ``PhyRate`` and its
#: ``Modulation`` would.
RATE_SNR_THRESHOLDS_DB = {
    RATE_1.mbps: 2.0,
    RATE_2.mbps: 4.0,
    RATE_5_5.mbps: 7.0,
    RATE_11.mbps: 10.0,
    RATE_6.mbps: 6.0,
    RATE_9.mbps: 8.0,
    RATE_12.mbps: 10.0,
    RATE_18.mbps: 12.0,
    RATE_24.mbps: 16.0,
    RATE_36.mbps: 20.0,
    RATE_48.mbps: 24.0,
    RATE_54.mbps: 26.0,
}


def rate_from_mbps(mbps: float) -> PhyRate:
    """Look up a canonical :class:`PhyRate` by its coded Mbps value."""
    for rate in ALL_RATES:
        if rate.mbps == mbps:
            return rate
    raise ValueError(f"no 802.11b/g rate with {mbps} Mbps")


def next_lower_rate(rate: PhyRate, allowed: Sequence[PhyRate]) -> PhyRate:
    """Rate to fall back to after a loss (never increases — Section 5.1).

    Returns the highest rate in ``allowed`` strictly below ``rate``, or
    ``rate`` itself when it is already the lowest allowed rate.
    """
    lower = [r for r in allowed if r.mbps < rate.mbps]
    if not lower:
        return rate
    return max(lower, key=lambda r: r.mbps)


# --- airtime -----------------------------------------------------------------


def plcp_duration_us(rate: PhyRate, short_preamble: bool = False) -> int:
    """PLCP preamble + header airtime for a frame sent at ``rate``."""
    if rate.is_ofdm:
        return PLCP_OFDM_US
    if short_preamble and rate is not RATE_1:
        return PLCP_SHORT_US
    return PLCP_LONG_US


def payload_duration_us(size_bytes: int, rate: PhyRate) -> int:
    """Airtime of the MAC frame body (header + payload + FCS) at ``rate``.

    OFDM transmissions are quantized to whole 4 us symbols (plus the 6 us
    signal extension ERP requires in 2.4 GHz); CCK is a straight
    bits-over-rate division rounded up to whole microseconds.
    """
    if size_bytes < 0:
        raise ValueError("frame size must be non-negative")
    bits = size_bytes * 8
    if rate.is_ofdm:
        # 16 service bits + 6 tail bits join the PSDU inside the DATA field.
        data_bits = 16 + bits + 6
        bits_per_symbol = rate.mbps * OFDM_SYMBOL_US
        symbols = math.ceil(data_bits / bits_per_symbol)
        return symbols * OFDM_SYMBOL_US + OFDM_SIGNAL_EXTENSION_US
    return math.ceil(bits / rate.bits_per_us)


def frame_airtime_us(
    size_bytes: int, rate: PhyRate, short_preamble: bool = False
) -> int:
    """Total on-air duration of one frame: PLCP + body."""
    return plcp_duration_us(rate, short_preamble) + payload_duration_us(
        size_bytes, rate
    )


def ack_airtime_us(rate: PhyRate) -> int:
    """Airtime of an ACK control frame sent at ``rate``."""
    return frame_airtime_us(ACK_FRAME_BYTES, rate)


def cts_airtime_us(rate: PhyRate) -> int:
    """Airtime of a CTS control frame sent at ``rate``."""
    return frame_airtime_us(CTS_FRAME_BYTES, rate)


def ack_rate_for(data_rate: PhyRate) -> PhyRate:
    """Basic rate used for the ACK answering a DATA frame at ``data_rate``.

    Control responses use the highest *basic* rate not exceeding the data
    rate; we use the conventional basic sets {1, 2, 5.5, 11} for CCK and
    {6, 12, 24} for OFDM.
    """
    if data_rate.is_ofdm:
        basics = (RATE_6, RATE_12, RATE_24)
    else:
        basics = B_RATES
    eligible = [r for r in basics if r.mbps <= data_rate.mbps]
    if not eligible:
        return basics[0]
    return max(eligible, key=lambda r: r.mbps)


def duration_field_us(payload_airtime_remaining_us: int) -> int:
    """Clamp a computed duration value into the 15-bit Duration/ID field."""
    return max(0, min(payload_airtime_remaining_us, 0x7FFF))


def data_duration_field_us(ack_rate: PhyRate) -> int:
    """Duration field carried by a unicast DATA frame.

    The field covers everything after this frame needed to finish the
    exchange: SIFS + ACK (Section 2: "the number of microseconds needed to
    complete the transaction (including any acknowledgments)").
    """
    return duration_field_us(SIFS_US + ack_airtime_us(ack_rate))


def cts_to_self_duration_field_us(
    data_size_bytes: int, data_rate: PhyRate, ack_rate: PhyRate
) -> int:
    """Duration field on a CTS-to-self protecting an 802.11g exchange.

    Reserves the channel for SIFS + DATA + SIFS + ACK.
    """
    remaining = (
        SIFS_US
        + frame_airtime_us(data_size_bytes, data_rate)
        + SIFS_US
        + ack_airtime_us(ack_rate)
    )
    return duration_field_us(remaining)


# --- footnote 7: protection overhead -----------------------------------------


def protection_overhead_factor(
    mss_bytes: int = 1500,
    data_rate: PhyRate = RATE_54,
    cts_rate: PhyRate = RATE_2,
) -> float:
    """Reproduce footnote 7's protection-mode overhead arithmetic.

    The paper computes the potential throughput improvement from disabling
    CTS-to-self protection for a full-size TCP segment at 54 Mbps:

        (248 + 16 + 248 + 16 + 28 + 32/2*20) / (248 + 16 + 28 + 16/2*20) = 1.98

    where 248 us is the CTS at 2 Mbps with long preamble, 16 us the (OFDM)
    SIFS, 248 us the MSS data frame at 54 Mbps, 28 us the OFDM ACK, and the
    backoff term uses the long slot (20 us) with CW/2 expected slots —
    CW 32 in mixed b/g mode, CW 16 in pure-g mode.

    We recompute each term from our own airtime model rather than hard-coding
    the paper's numbers; the test suite asserts the result is ~1.98.
    """
    cts_us = cts_airtime_us(cts_rate)
    sifs = 16  # the paper's footnote uses the OFDM SIFS figure
    data_us = frame_airtime_us(mss_bytes, data_rate)
    ack_us = ack_airtime_us(ack_rate_for(data_rate))
    backoff_protected = (32 / 2) * 20
    backoff_clean = (16 / 2) * 20
    protected = cts_us + sifs + data_us + sifs + ack_us + backoff_protected
    clean = data_us + sifs + ack_us + backoff_clean
    return protected / clean
