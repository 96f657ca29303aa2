"""The scenario registry: named workload families built from components.

The ROADMAP's north star asks for "as many scenarios as you can imagine";
this module is where imagined scenarios become named, reproducible
configurations.  A :class:`ScenarioFamily` couples a component recipe to
the paper analyses it stresses, at three scales:

* ``tiny``  — sub-second, a handful of nodes; unit tests and CI matrices.
* ``small`` — seconds, a dozen-plus clients; integration tests, sweeps.
* ``full``  — the building-scale deployment shape; benchmarks.

Registered families (see ``docs/scenarios.md`` for the full map):

``building``         the paper's canonical enterprise deployment;
``roaming``          clients carried between offices mid-run, handing off
                     between APs — stresses coverage (Fig 6) and
                     dispersion (Fig 4) under moving vantage points;
``hidden_terminal``  two mutually-inaudible client clusters sharing one
                     AP — stresses the interference estimator (Fig 9,
                     Section 7.2) and protection (Fig 10, Section 7.3);
``scanning``         clients sweeping all monitored channels with probe
                     bursts — densifies bootstrap's broadcast reference
                     sets (Section 4.1) and exercises off-channel loss;
``flash_crowd``      an arrival wave of clients and flows mid-run —
                     stresses the activity timelines (Fig 8) and TCP-loss
                     attribution under congestion (Fig 11, Section 7.4);
``campus``           several RF-isolated buildings composed into one
                     trace set (``repro.sim.campus``) — stresses
                     hierarchical sharding and the merge's radio-count
                     scaling at 500+ radios.

Cache compatibility: any change to the component schema or to a family's
meaning must bump :data:`SCENARIO_SCHEMA_VERSION`; the experiment
run-cache folds the version and family name into its fingerprint so
artifacts cached under an older schema can never be served for a
new-style scenario.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, Mapping, Tuple

from .scenario import ScenarioConfig

#: Bump when the component schema or a registered family's semantics
#: change in a way that invalidates previously cached runs.
SCENARIO_SCHEMA_VERSION = 1

#: The scales every family must provide.
SCALES: Tuple[str, ...] = ("tiny", "small", "full")


@dataclass(frozen=True)
class ScenarioFamily:
    """One named workload family and the analyses it stresses."""

    name: str
    description: str
    #: The paper sections/figures this family exercises.
    paper_focus: str
    #: What the analyses are expected to show on this family.
    expectations: str
    #: scale -> (seed -> ScenarioConfig)
    builders: Mapping[str, Callable[[int], ScenarioConfig]] = field(
        repr=False
    )

    def __post_init__(self) -> None:
        missing = [s for s in SCALES if s not in self.builders]
        if missing:
            raise ValueError(
                f"family {self.name!r} is missing scales {missing}"
            )

    def config(
        self, scale: str = "small", seed: int = 0, **overrides
    ) -> ScenarioConfig:
        """Build this family's configuration at the given scale.

        ``overrides`` accepts everything :class:`ScenarioConfig` does —
        whole components or flat field names.
        """
        try:
            builder = self.builders[scale]
        except KeyError:
            raise ValueError(
                f"family {self.name!r} has no scale {scale!r} "
                f"(choose from {sorted(self.builders)})"
            ) from None
        config = builder(seed)
        if overrides:
            config = config.with_overrides(**overrides)
        return config


class ScenarioRegistry:
    """Name -> :class:`ScenarioFamily` lookup with loud failure modes."""

    def __init__(self) -> None:
        self._families: Dict[str, ScenarioFamily] = {}

    def register(self, family: ScenarioFamily) -> ScenarioFamily:
        if family.name in self._families:
            raise ValueError(f"family {family.name!r} already registered")
        self._families[family.name] = family
        return family

    def get(self, name: str) -> ScenarioFamily:
        try:
            return self._families[name]
        except KeyError:
            raise KeyError(
                f"no scenario family named {name!r} "
                f"(registered: {self.names()})"
            ) from None

    def names(self) -> list:
        return sorted(self._families)

    def __iter__(self) -> Iterator[ScenarioFamily]:
        return iter(self._families[name] for name in self.names())

    def __contains__(self, name: str) -> bool:
        return name in self._families

    def __len__(self) -> int:
        return len(self._families)


#: The process-wide registry of named families.
REGISTRY = ScenarioRegistry()


def scenario_config(
    family: str, scale: str = "small", seed: int = 0, **overrides
) -> ScenarioConfig:
    """Convenience: ``REGISTRY.get(family).config(scale, seed, ...)``."""
    return REGISTRY.get(family).config(scale=scale, seed=seed, **overrides)


# --- registered families ---------------------------------------------------

REGISTRY.register(
    ScenarioFamily(
        name="building",
        description=(
            "The paper's canonical enterprise deployment: four floors, "
            "corridor APs on channels 1/6/11, office clients, diurnal "
            "traffic, microwave interference."
        ),
        paper_focus="Sections 3-7 end to end (the acceptance scenario)",
        expectations=(
            "Every analysis produces its headline result: >3 observations "
            "per transmission, dispersion under tens of microseconds, "
            "wireless-dominant TCP loss."
        ),
        builders={
            "tiny": lambda seed: ScenarioConfig.tiny(seed=seed),
            "small": lambda seed: ScenarioConfig.small(seed=seed),
            "full": lambda seed: ScenarioConfig.building(seed=seed),
        },
    )
)

REGISTRY.register(
    ScenarioFamily(
        name="roaming",
        description=(
            "Laptops carried between offices mid-run: roaming clients "
            "move, pick the then-strongest AP, and re-run the association "
            "handshake — coverage and dispersion under moving vantage "
            "points, reassociation bursts on the air."
        ),
        paper_focus="Fig 4 (dispersion), Fig 6 (coverage), Section 6",
        expectations=(
            "Roam events appear in the oracle; per-client coverage varies "
            "as clients cross well- and poorly-monitored rooms; the merge "
            "keeps dispersion bounded across handoffs."
        ),
        builders={
            "tiny": lambda seed: ScenarioConfig.tiny(
                seed=seed,
                duration_us=800_000,
                n_clients=6,
                roam_fraction=0.5,
                roam_interval_us=150_000,
            ),
            "small": lambda seed: ScenarioConfig.small(
                seed=seed,
                n_clients=14,
                roam_fraction=0.4,
                roam_interval_us=500_000,
                client_rescan_interval_us=800_000,
            ),
            "full": lambda seed: ScenarioConfig.building(
                seed=seed,
                roam_fraction=0.3,
                roam_interval_us=1_200_000,
            ),
        },
    )
)

REGISTRY.register(
    ScenarioFamily(
        name="hidden_terminal",
        description=(
            "A hotspot with two tight client clusters at opposite ends of "
            "a floor, ~66 m apart — beyond carrier-sense range of each "
            "other but both served by a mid-building AP — under an "
            "upload-heavy workload, with 802.11b clients mixed in so "
            "protection engages."
        ),
        paper_focus="Fig 9 / Section 7.2 (interference), Fig 10 / 7.3",
        expectations=(
            "The interference estimator finds sender/receiver pairs with "
            "elevated conditional loss; collisions produce corrupt "
            "captures; CTS-to-self appears once 11b clients are sensed."
        ),
        builders={
            "tiny": lambda seed: ScenarioConfig.tiny(
                seed=seed,
                duration_us=700_000,
                aps_per_floor=1,
                n_clients=6,
                placement="hotspot",
                fraction_11b_clients=0.34,
                flows_per_client_per_s=2.0,
                upload_fraction=0.7,
            ),
            "small": lambda seed: ScenarioConfig.small(
                seed=seed,
                floors=1,
                aps_per_floor=1,
                n_pods=6,
                n_clients=12,
                placement="hotspot",
                fraction_11b_clients=0.25,
                flows_per_client_per_s=1.5,
                upload_fraction=0.7,
            ),
            "full": lambda seed: ScenarioConfig.building(
                seed=seed,
                floors=2,
                aps_per_floor=1,
                n_pods=18,
                n_clients=28,
                placement="hotspot",
                fraction_11b_clients=0.25,
                flows_per_client_per_s=1.2,
                upload_fraction=0.6,
                diurnal=False,
                uncovered_wing=False,
            ),
        },
    )
)

REGISTRY.register(
    ScenarioFamily(
        name="scanning",
        description=(
            "Aggressively scanning clients: background rescans sweep every "
            "monitored channel with multi-probe bursts, landing broadcast "
            "probe requests in all three channels' monitor traces and "
            "losing downlink frames while off-channel."
        ),
        paper_focus="Section 4.1 (bootstrap references), Section 7.1",
        expectations=(
            "Bootstrap reference sets densify (probes join beacons/ARP as "
            "cross-radio anchors); probe traffic appears on all channels; "
            "off-channel dwell shows up as extra link-layer retries."
        ),
        builders={
            "tiny": lambda seed: ScenarioConfig.tiny(
                seed=seed,
                duration_us=900_000,
                client_rescan_interval_us=250_000,
                probe_burst=3,
                scan_sweep=True,
            ),
            "small": lambda seed: ScenarioConfig.small(
                seed=seed,
                client_rescan_interval_us=400_000,
                probe_burst=3,
                scan_sweep=True,
            ),
            "full": lambda seed: ScenarioConfig.building(
                seed=seed,
                client_rescan_interval_us=600_000,
                probe_burst=4,
                scan_sweep=True,
            ),
        },
    )
)

REGISTRY.register(
    ScenarioFamily(
        name="flash_crowd",
        description=(
            "An arrival wave: clients associate within a compressed "
            "window and flow arrivals surge mid-run to several times the "
            "base rate (a meeting letting out, a lecture starting) — "
            "congestion, queue overflows, and a burst of TCP loss."
        ),
        paper_focus="Fig 8 (activity timelines), Fig 11 / Section 7.4",
        expectations=(
            "Activity timelines show the wave against a quiet baseline; "
            "TCP-loss attribution finds the loss burst concentrated in "
            "the wave; airtime saturates at the peak."
        ),
        builders={
            "tiny": lambda seed: ScenarioConfig.tiny(
                seed=seed,
                n_clients=8,
                flows_per_client_per_s=3.0,
                flash_crowd=True,
                flash_center=0.55,
                flash_width=0.10,
                flash_intensity=5.0,
                start_window_us=120_000,
            ),
            "small": lambda seed: ScenarioConfig.small(
                seed=seed,
                n_clients=18,
                flows_per_client_per_s=0.8,
                flash_crowd=True,
                flash_center=0.5,
                flash_width=0.07,
                flash_intensity=6.0,
                start_window_us=300_000,
            ),
            "full": lambda seed: ScenarioConfig.building(
                seed=seed,
                n_clients=70,
                flash_crowd=True,
                flash_center=0.6,
                flash_width=0.05,
                flash_intensity=6.0,
                start_window_us=800_000,
            ),
        },
    )
)

REGISTRY.register(
    ScenarioFamily(
        name="campus",
        description=(
            "Several RF-isolated buildings composed into one trace set "
            "(repro.sim.campus.run_campus): disjoint radio-id ranges, "
            "building_id stamps on every trace, one synchronization "
            "island per building (the bootstrap covering family elects "
            "a reference radio in each).  The full scale is the "
            "hierarchical-sharding "
            "benchmark shape — 4 buildings x 32 pods x 4 radios = 512 "
            "monitor radios; override n_buildings for 1024/1536."
        ),
        paper_focus=(
            "Section 4's scaling claim taken past one building: merge "
            "throughput and shard planning at 500+ radios"
        ),
        expectations=(
            "partition_traces yields one (building, channel) leaf per "
            "pair; merge stays faster than real time at 512 radios."
        ),
        builders={
            # Per-building shapes stay deliberately light: campus runs
            # n_buildings full simulations, and the benchmark's subject
            # is the merge, not the air.
            "tiny": lambda seed: ScenarioConfig.tiny(
                seed=seed, n_buildings=2
            ),
            "small": lambda seed: ScenarioConfig.small(
                seed=seed, n_buildings=2
            ),
            "full": lambda seed: ScenarioConfig.building(
                seed=seed,
                n_buildings=4,
                duration_us=4_000_000,
                aps_per_floor=8,
                n_pods=32,
                # Light per-building traffic: the merge must stay faster
                # than real time at 512 radios on one core, and fewer
                # clients must not thin the broadcast reference density
                # below what stable clock fits need (12 clients over 32
                # APs holds zero quarantined radios; 10 does too but
                # nearly doubles the record rate through retry churn).
                n_clients=12,
                diurnal=False,
                uncovered_wing=False,
            ),
        },
    )
)
