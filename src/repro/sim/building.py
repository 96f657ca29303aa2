"""Building geometry and device placement.

Models the UCSD CSE building of Section 3.1 at the fidelity the experiments
need: four floors of ~150,000 sq ft total, two wings per floor joined by a
central corridor, production APs mounted in corridors on channels 1/6/11,
and sensor pods deployed "between and among these production APs".  Clients
are placed inside offices; a fraction sit in far corners, reproducing the
"rooms that consistently lack good coverage" of Figure 6.

The pod list carries a *redundancy order* used by the Figure 7 experiment:
the paper removes pods "at locations that appear to have overlapping
coverage by other pods as seen in building floor plans" — i.e. the most
visually redundant first — and we rank redundancy by proximity to the
nearest surviving pod.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..dot11.channels import Channel, ORTHOGONAL_CHANNELS
from ..phy.propagation import FLOOR_HEIGHT_M, Point, distance_m


@dataclass(frozen=True)
class Placement:
    """A placed device: position plus floor/wing bookkeeping."""

    position: Point
    floor: int
    wing: int

    @property
    def x(self) -> float:
        return self.position[0]

    @property
    def y(self) -> float:
        return self.position[1]


#: The share of office clients placed in far corners (Figure 6's tail).
CORNER_CLIENT_FRACTION = 0.15

#: Hidden-terminal hotspot cluster centers, as fractions of building length.
HOTSPOT_CLUSTER_FRACTIONS: Tuple[float, float] = (0.2, 0.8)

#: Uniform jitter around each hotspot cluster center, in meters.
HOTSPOT_CLUSTER_SPREAD_M = 4.0


@dataclass
class Building:
    """Simplified four-story two-wing building."""

    floors: int = 4
    wing_length_m: float = 55.0
    wing_width_m: float = 18.0
    corridor_y_m: float = 9.0       # corridor runs along the wing center
    device_height_m: float = 2.5    # APs/pods are ceiling-mounted

    @property
    def length_m(self) -> float:
        """Total building length: two wings end to end."""
        return 2 * self.wing_length_m

    def floor_z(self, floor: int) -> float:
        return floor * FLOOR_HEIGHT_M + self.device_height_m

    def client_z(self, floor: int) -> float:
        return floor * FLOOR_HEIGHT_M + 1.0  # laptop on a desk

    def wing_of(self, x: float) -> int:
        return 0 if x < self.wing_length_m else 1

    # --- placement ------------------------------------------------------

    def place_aps(
        self,
        per_floor: int = 10,
        exclude_wings: Sequence[Tuple[int, int]] = (),
    ) -> List[Placement]:
        """Corridor-mounted APs, evenly spaced, per floor.

        ``exclude_wings`` lists (floor, wing) pairs with no infrastructure —
        the paper's administrative half-wing ("not under our administrative
        control", footnote 2) hosts clients but neither APs nor monitors.
        """
        excluded = set(exclude_wings)
        placements = []
        for floor in range(self.floors):
            xs = np.linspace(
                self.length_m * 0.5 / per_floor,
                self.length_m * (1 - 0.5 / per_floor),
                per_floor,
            )
            for x in xs:
                if (floor, self.wing_of(x)) in excluded:
                    continue
                pos = (float(x), self.corridor_y_m, self.floor_z(floor))
                placements.append(Placement(pos, floor, self.wing_of(x)))
        return placements

    def place_pods(
        self,
        total: int = 39,
        exclude_wings: Sequence[Tuple[int, int]] = (),
    ) -> List[Placement]:
        """Sensor pods in corridors, interleaved between AP positions."""
        excluded = set(exclude_wings)
        placements = []
        per_floor = [total // self.floors] * self.floors
        for i in range(total % self.floors):
            per_floor[i] += 1
        for floor, count in enumerate(per_floor):
            if count == 0:
                continue
            # Offset from AP grid by half a spacing so pods sit between APs.
            xs = np.linspace(
                self.length_m * 0.25 / count,
                self.length_m * (1 - 0.75 / count),
                count,
            ) + self.length_m * 0.25 / count
            for x in xs:
                if (floor, self.wing_of(float(x))) in excluded:
                    continue
                pos = (
                    float(min(x, self.length_m - 1.0)),
                    self.corridor_y_m + 1.0,
                    self.floor_z(floor),
                )
                placements.append(Placement(pos, floor, self.wing_of(x)))
        return placements

    def place_clients(
        self,
        count: int,
        rng: np.random.Generator,
        corner_fraction: float = CORNER_CLIENT_FRACTION,
    ) -> List[Placement]:
        """Clients in offices; ``corner_fraction`` of them in far corners.

        Corner clients model the poorly covered rooms of Figure 6 — their
        distance from corridor-mounted pods depresses their per-station
        coverage.
        """
        return [
            self.random_client_placement(rng, corner_fraction)
            for _ in range(count)
        ]

    def random_client_placement(
        self,
        rng: np.random.Generator,
        corner_fraction: float = CORNER_CLIENT_FRACTION,
    ) -> Placement:
        """One office placement drawn from ``rng``.

        This is the per-client draw :meth:`place_clients` makes; the
        roaming scheduler reuses it to pick each move's destination so a
        roamer's new position is distributed like any other client's.
        """
        floor = int(rng.integers(0, self.floors))
        if rng.random() < corner_fraction:
            # Far corner of a wing: max distance from the corridor.
            x = float(rng.choice([1.5, self.length_m - 1.5]))
            y = float(rng.choice([0.8, self.wing_width_m - 0.8]))
        else:
            x = float(rng.uniform(2.0, self.length_m - 2.0))
            y = float(rng.uniform(1.0, self.wing_width_m - 1.0))
        pos = (x, y, self.client_z(floor))
        return Placement(pos, floor, self.wing_of(x))

    def place_clients_hotspot(
        self,
        count: int,
        rng: np.random.Generator,
        floor: int = 0,
        cluster_fractions: Sequence[float] = HOTSPOT_CLUSTER_FRACTIONS,
        spread_m: float = HOTSPOT_CLUSTER_SPREAD_M,
    ) -> List[Placement]:
        """Two tight client clusters at opposite ends of one floor.

        The cluster centers sit ~66 m apart — beyond carrier-sense range
        at client transmit power under the default propagation model
        (path loss exceeds the ~97 dB carrier-sense budget past ~53 m) —
        while both clusters remain in good range of a mid-building AP:
        the canonical hidden-terminal hotspot.  Clients alternate between
        clusters so the two sides stay balanced.
        """
        centers = [f * self.length_m for f in cluster_fractions]
        placements = []
        for i in range(count):
            cx = centers[i % len(centers)]
            x = float(
                np.clip(
                    cx + rng.uniform(-spread_m, spread_m),
                    1.0,
                    self.length_m - 1.0,
                )
            )
            y = float(
                rng.uniform(self.corridor_y_m - 3.0, self.corridor_y_m + 3.0)
            )
            pos = (x, y, self.client_z(floor))
            placements.append(Placement(pos, floor, self.wing_of(x)))
        return placements


def assign_channels(placements: Sequence[Placement]) -> List[Channel]:
    """Assign channels 1/6/11 round-robin along each floor's AP row.

    Round-robin along the corridor keeps co-channel APs maximally separated,
    the standard enterprise plan; co-channel neighbours on different floors
    still overlap — one source of the cross-AP interference Section 7.2
    observes.
    """
    channels = []
    per_floor_index: dict = {}
    for placement in placements:
        idx = per_floor_index.get(placement.floor, 0)
        channels.append(Channel(ORTHOGONAL_CHANNELS[idx % 3]))
        per_floor_index[placement.floor] = idx + 1
    return channels


def pod_reduction_order(pods: Sequence[Placement]) -> List[int]:
    """Indices of pods in removal order, most visually redundant first.

    Greedy farthest-point-style elimination: repeatedly drop the pod whose
    nearest surviving neighbour is closest (i.e. whose coverage visually
    overlaps another pod's the most).  Matches the paper's manual
    "visual redundancy" procedure in spirit and is deterministic.
    """
    remaining = list(range(len(pods)))
    order: List[int] = []
    while len(remaining) > 1:
        best_idx = None
        best_gap = float("inf")
        for i in remaining:
            gap = min(
                distance_m(pods[i].position, pods[j].position)
                for j in remaining
                if j != i
            )
            if gap < best_gap:
                best_gap = gap
                best_idx = i
        assert best_idx is not None
        order.append(best_idx)
        remaining.remove(best_idx)
    order.extend(remaining)
    return order
