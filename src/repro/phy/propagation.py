"""Indoor radio propagation model.

Jigsaw never touches RF directly: the algorithms consume only *which* radios
hear *which* frames at what signal strength, with what damage.  What matters
for a faithful reproduction is that the propagation model produce the same
observable structure the paper describes:

* signal strength decays with distance, so "no single frame likely covers an
  entire building" (Section 4.1) and synchronization must be transitive;
* walls and floors attenuate, producing the room-to-room coverage variation
  of Figure 6 ("clients with substantial missing frames were located in
  rooms that consistently lack good coverage");
* distant nodes cannot carrier-sense each other, creating the hidden
  terminals whose co-channel interference Section 7.2 measures.

We use the standard log-distance path-loss model with per-floor attenuation
and deterministic log-normal shadowing (hashed per endpoint pair, so a link
has a stable character across a run — like a real pair of locations).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

Point = Tuple[float, float, float]

#: Free-space loss at the 1 m reference distance for 2.4 GHz.
REFERENCE_LOSS_DB = 40.0

#: Typical indoor path-loss exponent (obstructed office environment).
DEFAULT_PATH_LOSS_EXPONENT = 3.3

#: Attenuation per concrete floor crossed.
DEFAULT_FLOOR_LOSS_DB = 15.0

#: Standard deviation of log-normal shadowing.  Indoor measurements put
#: sigma at 7-10 dB for obstructed office links; the high value is what
#: produces the paper's "rooms that consistently lack good coverage"
#: (Figure 6's client tail) — with mild shadowing every corridor-mounted
#: pod hears every office and coverage is unrealistically perfect.
DEFAULT_SHADOWING_SIGMA_DB = 8.0

#: Height of one building floor in meters (used to count floor crossings).
FLOOR_HEIGHT_M = 4.0


def distance_m(a: Point, b: Point) -> float:
    """Euclidean distance between two 3-D points in meters."""
    return math.dist(a, b)


@dataclass(frozen=True)
class PropagationModel:
    """Log-distance path loss + floor loss + stable per-link shadowing.

    Losses are cached per endpoint pair: a building-scale fleet evaluates
    every transmission against ~250 receivers, so each unordered pair of
    positions is computed once and every later probe, in either
    direction, is a plain two-level dict lookup.  Positions are the keys,
    so a device that moves simply probes a new pair.
    """

    path_loss_exponent: float = DEFAULT_PATH_LOSS_EXPONENT
    floor_loss_db: float = DEFAULT_FLOOR_LOSS_DB
    shadowing_sigma_db: float = DEFAULT_SHADOWING_SIGMA_DB
    shadowing_seed: int = 0
    _losses: Dict[Point, Dict[Point, float]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def losses_from(self, tx: Point) -> Dict[Point, float]:
        """The live map from position to cached loss for endpoint ``tx``.

        A miss in it means the pair has not been computed yet:
        :meth:`path_loss_db` computes it and fills this map (and the
        reverse direction's) in place.
        """
        row = self._losses.get(tx)
        if row is None:
            row = self._losses[tx] = {}
        return row

    def path_loss_db(self, tx: Point, rx: Point) -> float:
        """Total propagation loss from ``tx`` to ``rx`` in dB (symmetric)."""
        row = self.losses_from(tx)
        loss = row.get(rx)
        if loss is None:
            dist = max(distance_m(tx, rx), 1.0)
            loss = REFERENCE_LOSS_DB + 10.0 * self.path_loss_exponent * math.log10(dist)
            loss += self._floor_crossings(tx, rx) * self.floor_loss_db
            loss += self._shadowing_db(tx, rx)
            row[rx] = loss
            self.losses_from(rx)[tx] = loss
        return loss

    def rssi_dbm(self, tx_power_dbm: float, tx: Point, rx: Point) -> float:
        """Received signal strength at ``rx`` for a transmission from ``tx``."""
        return tx_power_dbm - self.path_loss_db(tx, rx)

    # --- internals -----------------------------------------------------

    @staticmethod
    def _floor_crossings(a: Point, b: Point) -> int:
        return abs(int(a[2] // FLOOR_HEIGHT_M) - int(b[2] // FLOOR_HEIGHT_M))

    def _shadowing_db(self, a: Point, b: Point) -> float:
        """Deterministic log-normal shadowing, symmetric in (a, b).

        Seeding a tiny generator from the quantized endpoints makes the
        value reproducible run-to-run and identical in both link directions,
        while still varying irregularly from link to link — the same role
        shadow fading plays in a real building.
        """
        if self.shadowing_sigma_db <= 0:
            return 0.0
        qa = tuple(int(round(c * 4)) for c in a)
        qb = tuple(int(round(c * 4)) for c in b)
        lo, hi = (qa, qb) if qa <= qb else (qb, qa)
        seed = hash((lo, hi, self.shadowing_seed)) & 0xFFFF_FFFF
        rng = np.random.default_rng(seed)
        return float(rng.normal(0.0, self.shadowing_sigma_db))
