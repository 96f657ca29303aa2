"""Broadband interference sources.

Section 7.1 attributes part of the 47% error-event share to "broadband
interference (microwave ovens)".  A :class:`BroadbandInterferer` raises the
effective noise floor near its location during duty cycles, producing bursts
of PHY/CRC errors at nearby monitors without any corresponding 802.11
transmission — background loss the interference estimator of Section 7.2
must not misattribute.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from .propagation import Point, PropagationModel


@dataclass(frozen=True)
class BroadbandInterferer:
    """A duty-cycled wideband noise source (e.g. a microwave oven)."""

    position: Point
    power_dbm: float = 20.0
    period_us: int = 16_667        # magnetron gates at mains half-cycle
    duty_cycle: float = 0.5
    start_us: int = 0
    stop_us: int = 1 << 62

    def active_at(self, t_us: int) -> bool:
        if not self.start_us <= t_us < self.stop_us:
            return False
        phase = (t_us - self.start_us) % self.period_us
        return phase < self.period_us * self.duty_cycle


#: Levels at or below this are negligible and not reported as interference.
NEGLIGIBLE_DBM = -200.0


def active_sources(
    interferers: Sequence[BroadbandInterferer], t_us: int
) -> Tuple[BroadbandInterferer, ...]:
    """The sources on at ``t_us``.

    A frame sees each source's state at its start time, and that state is
    the same at every receiver, so the medium asks once per transmission.
    """
    return tuple(source for source in interferers if source.active_at(t_us))


def ambient_interference_dbm(
    interferers: Sequence[BroadbandInterferer],
    t_us: int,
    rx: Point,
    propagation: PropagationModel,
) -> Tuple[float, ...]:
    """Interference levels from every active broadband source at ``rx``."""
    levels = []
    for source in active_sources(interferers, t_us):
        level = propagation.rssi_dbm(source.power_dbm, source.position, rx)
        if level > NEGLIGIBLE_DBM:
            levels.append(level)
    return tuple(levels)
