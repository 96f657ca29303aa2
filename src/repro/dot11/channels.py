"""2.4 GHz channel plan.

The monitoring platform captures "all 'non-overlapping' channels (1, 6 and
11) typically used in 802.11b/g deployments" (Section 3.1), and the analysis
notes that "since the platform monitors orthogonal channels, adjacent-channel
interference is rare and co-channel interference from hidden terminals is
likely the dominate cause" (Section 7.2).  We model the 2.4 GHz plan exactly:
channels 1..14, 5 MHz apart, ~22 MHz wide, with a simple spectral-overlap
fraction used by the PHY when deciding whether a transmission on a nearby
channel raises the noise floor at a receiver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

#: Channels usable in the USA (the paper's deployment).
US_CHANNELS: Tuple[int, ...] = tuple(range(1, 12))

#: The non-overlapping trio used by the production network and monitors.
ORTHOGONAL_CHANNELS: Tuple[int, int, int] = (1, 6, 11)

#: Nominal occupied bandwidth of an 802.11b/g transmission.
CHANNEL_WIDTH_MHZ = 22.0

#: Spacing between adjacent channel center frequencies.
CHANNEL_SPACING_MHZ = 5.0


@dataclass(frozen=True)
class Channel:
    """A 2.4 GHz 802.11 channel."""

    number: int

    def __post_init__(self) -> None:
        if not 1 <= self.number <= 14:
            raise ValueError(f"invalid 2.4 GHz channel: {self.number}")

    @property
    def center_mhz(self) -> float:
        if self.number == 14:
            return 2484.0
        return 2412.0 + (self.number - 1) * CHANNEL_SPACING_MHZ

    def overlap_fraction(self, other: "Channel") -> float:
        """Fraction of spectral power from ``other`` landing in this channel
        (the triangular model of :data:`OVERLAP`)."""
        return OVERLAP[self.number][other.number]

    def is_orthogonal_to(self, other: "Channel") -> bool:
        return self.overlap_fraction(other) == 0.0

    def __str__(self) -> str:
        return f"ch{self.number}"


def _triangular_overlap(receiver: Channel, sender: Channel) -> float:
    """Fraction of spectral power from ``sender`` landing in ``receiver``.

    A triangular overlap model: 1.0 for co-channel, decaying linearly to
    zero at >= 5 channels (25 MHz) separation — which makes channels
    1/6/11 orthogonal, as the paper assumes.
    """
    separation_mhz = abs(receiver.center_mhz - sender.center_mhz)
    if separation_mhz >= CHANNEL_WIDTH_MHZ + 3.0:
        return 0.0
    return max(0.0, 1.0 - separation_mhz / (CHANNEL_WIDTH_MHZ + 3.0))


#: ``OVERLAP[a][b]``: the triangular overlap of channel ``b`` into channel
#: ``a``, for channel numbers 1..14 (row and column 0 are unused); it
#: depends only on the separation, so it is symmetric.  The simulated
#: medium reads it once per receiver per transmission, so it is evaluated
#: here once instead of on every delivery.
OVERLAP: Tuple[Tuple[float, ...], ...] = tuple(
    tuple(
        0.0 if 0 in (a, b) else _triangular_overlap(Channel(a), Channel(b))
        for b in range(15)
    )
    for a in range(15)
)


CHANNEL_1 = Channel(1)
CHANNEL_6 = Channel(6)
CHANNEL_11 = Channel(11)
