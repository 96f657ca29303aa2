"""Scenario configuration: pluggable components, one composed config.

A scenario is described by five orthogonal components, each a small frozen
dataclass that can be swapped or overridden independently:

* :class:`GeometryConfig` — the building and where infrastructure sits
  (floors, AP grid, pod count, the uncovered administrative wing);
* :class:`FleetConfig` — who is deployed (client count and placement
  style, capability mix, transmit powers, the AP protection policy);
* :class:`ClientBehaviorConfig` — how clients *act* (background rescans,
  probe bursts, channel sweeps, roaming between APs, arrival staggering);
* :class:`WorkloadConfig` — what they transfer (archetype mix, sizes,
  diurnal shaping, flash-crowd arrival waves);
* :class:`ImpairmentConfig` — what the environment does to them
  (microwave interference, wired-path loss and delay, ARP broadcast
  cadence);

plus :class:`ClockConfig` for the monitors' capture-clock error model.
:class:`ScenarioConfig` composes the six and stays drop-in compatible
with the old monolithic config: every historical flat field name is
accepted as a constructor keyword (routed into the owning component) and
readable as a property, so ``ScenarioConfig.small(fraction_11b_clients=0.5)``
keeps meaning what it always did.

Components compose without perturbing each other's randomness: every
*optional* behavior draws from its own :class:`ScenarioStreams` stream,
derived via ``np.random.SeedSequence`` spawn keys, so enabling roaming
(say) cannot shift the random draws that place clients or set clock
errors.  The named constructors give the scales used throughout the
tests and benchmarks:

* :meth:`ScenarioConfig.tiny` — a handful of nodes, sub-second; unit tests.
* :meth:`ScenarioConfig.small` — one floor, seconds; integration tests.
* :meth:`ScenarioConfig.building` — the paper's shape (4 floors, 39 pods /
  156 radios, channels 1/6/11), compressed in time; benchmarks.

Named scenario *families* built from these components live in
:mod:`repro.sim.registry`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Dict, Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class ClockConfig:
    """Per-radio clock error magnitudes (Section 4.2).

    The 802.11 standard mandates <= 100 PPM skew; "our experience is that
    Atheros hardware has far better frequency stability in practice", so the
    default sigma is well under the mandate.  Drift — the change in skew
    over time — is a random walk in PPM.
    """

    offset_spread_us: float = 250_000.0
    skew_ppm_sigma: float = 15.0
    max_skew_ppm: float = 100.0
    drift_ppm_per_s_sigma: float = 0.02
    update_interval_us: int = 1_000_000


@dataclass(frozen=True)
class GeometryConfig:
    """The building and where the infrastructure is mounted."""

    floors: int = 4
    aps_per_floor: int = 10
    n_pods: int = 39

    # Campus scale: how many RF-isolated copies of this building the
    # deployment spans.  ``1`` is the paper's single building; larger
    # values are consumed by :func:`repro.sim.campus.run_campus`, which
    # composes that many independent building simulations (disjoint
    # radio-id ranges, per-building ``building_id`` stamps on every
    # trace) rather than growing one simulation — buildings never share
    # air, so composition is exact.
    n_buildings: int = 1

    # Which campus building this configuration simulates (always 0 for a
    # standalone building).  Campus composition sets it per sub-config so
    # each building mints MAC addresses from a disjoint block — building
    # 0's addresses are unchanged from a standalone run, keeping the
    # golden traces and the 1-building == ``run_scenario`` identity.
    building_index: int = 0

    # The paper's building has an administrative wing (first floor, left)
    # with clients but no monitors or APs (footnote 2); clients there reach
    # distant APs and drag the Figure 6 client coverage tail down.
    uncovered_wing: bool = False

    def __post_init__(self) -> None:
        if self.n_pods < 1 or self.aps_per_floor < 1 or self.floors < 1:
            raise ValueError("fleet sizes must be positive")
        if self.n_buildings < 1:
            raise ValueError("n_buildings must be positive")
        if self.building_index < 0:
            raise ValueError("building_index must be non-negative")


#: Client placement styles understood by the runner (see
#: :meth:`repro.sim.building.Building.place_clients`).
CLIENT_PLACEMENTS = ("offices", "hotspot")


@dataclass(frozen=True)
class FleetConfig:
    """The production population: clients, capabilities, radio policy."""

    n_clients: int = 40
    corner_client_fraction: float = 0.15

    # Client capability mix: Section 7.3's protection analysis needs both
    # 802.11b ("legacy") and 802.11g clients present.
    fraction_11b_clients: float = 0.2

    # Radio parameters
    tx_power_ap_dbm: float = 18.0
    tx_power_client_dbm: float = 15.0

    # AP protection-mode policy: the paper's APs "will not turn off
    # protection until an hour has passed without sensing an 802.11b
    # client in range" (Section 7.3).
    protection_timeout_us: int = 3_600_000_000

    # "offices" spreads clients through the building; "hotspot" packs them
    # into two mutually-hidden clusters (the hidden-terminal family).
    placement: str = "offices"

    def __post_init__(self) -> None:
        if not 0.0 <= self.fraction_11b_clients <= 1.0:
            raise ValueError("fraction_11b_clients must be in [0, 1]")
        if self.n_clients < 1:
            raise ValueError("fleet sizes must be positive")
        if self.placement not in CLIENT_PLACEMENTS:
            raise ValueError(
                f"unknown client placement {self.placement!r} "
                f"(choose from {CLIENT_PLACEMENTS})"
            )


@dataclass(frozen=True)
class ClientBehaviorConfig:
    """How clients behave on the air, beyond carrying traffic."""

    # Clients emit a background probe on their serving channel at this
    # interval (0 = never); probe responses are the range evidence the
    # Section 7.3 protection analysis consumes.
    rescan_interval_us: int = 0

    # Probe requests per background rescan (real chipsets burst several).
    probe_burst: int = 1

    # When true, background rescans sweep every monitored channel (dwelling
    # briefly off the serving channel) instead of probing in place — the
    # channel-scanning client family.  Broadcast probes on all channels
    # densify bootstrap's cross-channel reference sets.
    scan_sweep: bool = False

    # Roaming: this fraction of clients periodically move to a new office
    # position and re-associate with the then-strongest AP.  Intervals are
    # exponential with the given mean.  0 disables roaming entirely.
    roam_fraction: float = 0.0
    roam_interval_us: int = 0

    # When set, client start times compress into [0, start_window_us]
    # instead of the default stagger — the flash-crowd arrival wave.
    start_window_us: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.roam_fraction <= 1.0:
            raise ValueError("roam_fraction must be in [0, 1]")
        if self.probe_burst < 1:
            raise ValueError("probe_burst must be at least 1")
        if self.roam_fraction > 0 and self.roam_interval_us <= 0:
            raise ValueError(
                "roaming clients need a positive roam_interval_us"
            )
        if self.start_window_us is not None and self.start_window_us <= 0:
            raise ValueError("start_window_us must be positive when set")


@dataclass(frozen=True)
class ImpairmentConfig:
    """Environmental and wired-side impairments."""

    # Environment: duty-cycled broadband interference from microwave ovens
    # (Section 7.1); also a source of genuine wireless TCP loss (Fig 11).
    microwave: bool = False

    # Wired side (for the Fig 11 decomposition and the coverage oracle)
    wired_loss_rate: float = 0.003
    wired_rtt_us: int = 20_000
    arp_interval_us: int = 400_000   # Vernier-style tracker ARP cadence

    def __post_init__(self) -> None:
        if not 0.0 <= self.wired_loss_rate < 1.0:
            raise ValueError("wired_loss_rate must be in [0, 1)")


@dataclass(frozen=True)
class WorkloadConfig:
    """Traffic mix: the paper's oracle workload was "a combination of Web
    browsing ..., interactive ssh sessions ..., and scp copies of large
    files (producing both short and long flows as well as small and large
    packets)" (Section 6)."""

    flows_per_client_per_s: float = 0.5
    web_weight: float = 0.6
    ssh_weight: float = 0.2
    scp_weight: float = 0.2
    web_bytes_mean: float = 24_000.0
    ssh_bytes_mean: float = 4_000.0
    scp_bytes_mean: float = 400_000.0
    upload_fraction: float = 0.25
    mss_bytes: int = 1460

    # Diurnal shaping: when true, client activity follows a day curve
    # compressed into the scenario duration (midnight..midnight).
    diurnal: bool = False

    # Flash crowd: a gaussian arrival wave multiplying the base rate by up
    # to (1 + flash_intensity), centered at flash_center (fraction of the
    # run) with flash_width (fraction of the run) standard deviation.
    flash_crowd: bool = False
    flash_center: float = 0.5
    flash_width: float = 0.08
    flash_intensity: float = 6.0

    def __post_init__(self) -> None:
        weights = (self.web_weight, self.ssh_weight, self.scp_weight)
        if any(w < 0 for w in weights):
            raise ValueError(
                f"archetype weights must be non-negative, got {weights}"
            )
        if sum(weights) <= 0:
            raise ValueError(
                "workload weights must sum to a positive value "
                f"(got web={self.web_weight}, ssh={self.ssh_weight}, "
                f"scp={self.scp_weight})"
            )
        if self.flash_crowd and self.flash_intensity <= 0:
            raise ValueError("flash_intensity must be positive")
        if self.flash_crowd and not 0 < self.flash_width:
            raise ValueError("flash_width must be positive")
        if self.flash_crowd and not 0.0 <= self.flash_center <= 1.0:
            raise ValueError(
                "flash_center is a fraction of the run, must be in [0, 1] "
                f"(got {self.flash_center})"
            )

    def archetype_weights(self) -> tuple:
        """The (web, ssh, scp) mix, explicitly normalized to sum to 1.

        A zero or negative sum cannot reach here: construction already
        rejects it in ``__post_init__``.
        """
        total = self.web_weight + self.ssh_weight + self.scp_weight
        return (
            self.web_weight / total,
            self.ssh_weight / total,
            self.scp_weight / total,
        )

    def flash_envelope(self, t_us: int, duration_us: int) -> float:
        """Arrival-rate multiplier of the flash wave at ``t_us`` (>= 1)."""
        if not self.flash_crowd:
            return 1.0
        center = self.flash_center * duration_us
        width = max(1.0, self.flash_width * duration_us)
        return 1.0 + self.flash_intensity * math.exp(
            -((t_us - center) ** 2) / (2 * width**2)
        )

    @property
    def flash_peak(self) -> float:
        """Maximum value :meth:`flash_envelope` can take."""
        return 1.0 + self.flash_intensity if self.flash_crowd else 1.0


@dataclass(frozen=True)
class FaultConfig:
    """Injected capture-path faults (the robustness harness).

    Everything here models damage *between* the radio's antenna and the
    trace file the pipeline reads — the failure modes a real day-scale
    deployment accumulates — so every recovery path in ``jtrace``/``core``
    is exercised by generated workloads rather than hand-crafted fixtures:

    * ``corrupt_rate`` — per-record probability that the encoded record's
      header bytes are smashed on the way to disk (disk/DMA corruption;
      exercises the skip-policy resynchronization scanner);
    * ``truncate_radios`` — this many radios' trace files are cut at
      ``truncate_at_fraction`` of the run, mid-record in the decompressed
      byte stream (radio power loss);
    * ``blackout_radios`` — this many radios go dark (capture nothing) for
      ``blackout_duration_fraction`` of the run starting at
      ``blackout_start_fraction``, then resume — the radio
      blackout/reboot-mid-trace fault (the trace stays decodable; the
      timeline simply has a hole);
    * ``clock_jump_radios`` — this many radios' capture clocks step by
      ``clock_jump_us`` at ``clock_jump_at_fraction`` of the run
      (firmware reboot resetting the TSF; exercises the bootstrap's
      unstable-clock-fit quarantine when the jump lands inside the
      examination window).

    All-off defaults mean a scenario with a ``FaultConfig()`` is
    bit-identical to one without: the component draws nothing from its
    random stream unless a fault is enabled (the spawn-key discipline of
    PR 4), and fault radio selection uses the dedicated ``faults`` stream
    so enabling corruption cannot reshuffle workload draws.
    """

    corrupt_rate: float = 0.0
    truncate_radios: int = 0
    truncate_at_fraction: float = 0.8
    blackout_radios: int = 0
    blackout_start_fraction: float = 0.4
    blackout_duration_fraction: float = 0.2
    clock_jump_radios: int = 0
    clock_jump_us: int = 2_000_000
    clock_jump_at_fraction: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.corrupt_rate <= 1.0:
            raise ValueError("corrupt_rate must be in [0, 1]")
        if self.truncate_radios < 0 or self.blackout_radios < 0:
            raise ValueError("fault radio counts must be >= 0")
        if self.clock_jump_radios < 0:
            raise ValueError("fault radio counts must be >= 0")
        for name in (
            "truncate_at_fraction",
            "blackout_start_fraction",
            "blackout_duration_fraction",
            "clock_jump_at_fraction",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.clock_jump_radios and self.clock_jump_us == 0:
            raise ValueError("clock_jump_us must be nonzero when jumps are on")

    @property
    def any(self) -> bool:
        """True when at least one fault is enabled."""
        return bool(
            self.corrupt_rate > 0
            or self.truncate_radios
            or self.blackout_radios
            or self.clock_jump_radios
        )


#: Component attribute names on :class:`ScenarioConfig`.
COMPONENT_NAMES = (
    "geometry",
    "fleet",
    "behavior",
    "impairments",
    "workload",
    "faults",
    "clocks",
)

#: Historical flat spellings that differ from the component field name.
_FLAT_ALIASES = {
    "client_rescan_interval_us": ("behavior", "rescan_interval_us"),
}


def _build_flat_routes() -> Dict[str, Tuple[str, str]]:
    """Map every component field name to its owning component.

    Field names are required to be unique across components so any of
    them can be passed flat to :class:`ScenarioConfig` unambiguously.
    """
    routes: Dict[str, Tuple[str, str]] = dict(_FLAT_ALIASES)
    for component, cls in (
        ("geometry", GeometryConfig),
        ("fleet", FleetConfig),
        ("behavior", ClientBehaviorConfig),
        ("impairments", ImpairmentConfig),
        ("workload", WorkloadConfig),
        ("faults", FaultConfig),
    ):
        for f in fields(cls):
            if f.name in routes:
                raise TypeError(
                    f"scenario component field {f.name!r} is ambiguous: "
                    f"declared by both {routes[f.name][0]} and {component}"
                )
            routes[f.name] = (component, f.name)
    return routes


_FLAT_ROUTES = _build_flat_routes()

#: Spawn keys for the per-component random streams.  Fixed integers (never
#: reused, never renumbered) so a stream's identity survives unrelated
#: components gaining or losing features.
_STREAM_KEYS = {
    "geometry": 1,
    "fleet": 2,
    "behavior": 3,
    "workload": 4,
    "impairments": 5,
    "clocks": 6,
    "roam": 7,
    "arrival": 8,
    "faults": 9,
    # Per-building sub-seed derivation for campus composition
    # (:mod:`repro.sim.campus`): building b of a campus simulates with
    # seed ``SeedSequence(seed, spawn_key=(10, b))``.
    "campus": 10,
}


@dataclass(frozen=True)
class ScenarioStreams:
    """Per-component random streams for one scenario seed.

    Streams are derived with ``np.random.SeedSequence`` spawn keys —
    ``SeedSequence(seed, spawn_key=(key,))`` is exactly the child
    ``SeedSequence(seed).spawn(...)`` would hand out for that index, but
    addressed by a stable per-component key instead of call order.  Two
    consequences the scenario subsystem relies on:

    * components cannot perturb each other: the roaming component's draws
      come from the ``roam`` stream no matter how many draws the workload
      stream made;
    * per-entity streams (``entity("roam", 3)`` for roamer #3) are
      independent of how many entities exist, so adding a client does not
      reshuffle the others' behavior.
    """

    seed: int

    def component(self, name: str) -> np.random.Generator:
        """The named component's own generator."""
        return np.random.default_rng(
            np.random.SeedSequence(self.seed, spawn_key=(_STREAM_KEYS[name],))
        )

    def entity(self, name: str, index: int) -> np.random.Generator:
        """A per-entity generator under the named component stream."""
        return np.random.default_rng(
            np.random.SeedSequence(
                self.seed, spawn_key=(_STREAM_KEYS[name], index)
            )
        )


@dataclass(frozen=True, init=False)
class ScenarioConfig:
    """Complete description of one simulated deployment and run.

    Construct it from components::

        ScenarioConfig(seed=7, geometry=GeometryConfig(floors=2),
                       workload=WorkloadConfig(flash_crowd=True))

    or with the historical flat keywords, which route into the owning
    component (and may be mixed with component keywords, flat winning)::

        ScenarioConfig(seed=7, floors=2, flash_crowd=True)

    Every flat name is also readable as a property (``config.floors``),
    so pre-component call sites keep working unchanged.
    """

    seed: int
    duration_us: int
    geometry: GeometryConfig
    fleet: FleetConfig
    behavior: ClientBehaviorConfig
    impairments: ImpairmentConfig
    workload: WorkloadConfig
    faults: FaultConfig
    clocks: ClockConfig

    def __init__(
        self,
        seed: int = 0,
        duration_us: int = 5_000_000,
        *,
        geometry: Optional[GeometryConfig] = None,
        fleet: Optional[FleetConfig] = None,
        behavior: Optional[ClientBehaviorConfig] = None,
        impairments: Optional[ImpairmentConfig] = None,
        workload: Optional[WorkloadConfig] = None,
        faults: Optional[FaultConfig] = None,
        clocks: Optional[ClockConfig] = None,
        **flat,
    ) -> None:
        components = {
            "geometry": geometry if geometry is not None else GeometryConfig(),
            "fleet": fleet if fleet is not None else FleetConfig(),
            "behavior": behavior
            if behavior is not None
            else ClientBehaviorConfig(),
            "impairments": impairments
            if impairments is not None
            else ImpairmentConfig(),
            "workload": workload if workload is not None else WorkloadConfig(),
            "faults": faults if faults is not None else FaultConfig(),
        }
        routed: Dict[str, Dict[str, object]] = {}
        for name, value in flat.items():
            route = _FLAT_ROUTES.get(name)
            if route is None:
                raise TypeError(
                    f"ScenarioConfig got an unexpected keyword {name!r}"
                )
            component, attr = route
            routed.setdefault(component, {})[attr] = value
        for component, attrs in routed.items():
            components[component] = replace(components[component], **attrs)
        if duration_us <= 0:
            raise ValueError("duration must be positive")
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "duration_us", int(duration_us))
        for name, value in components.items():
            object.__setattr__(self, name, value)
        object.__setattr__(
            self, "clocks", clocks if clocks is not None else ClockConfig()
        )

    # --- composition helpers ---------------------------------------------

    def with_overrides(self, **overrides) -> "ScenarioConfig":
        """This config with components and/or flat fields replaced.

        Accepts exactly the constructor's keywords; unspecified components
        carry over from this config.
        """
        kwargs = {name: getattr(self, name) for name in COMPONENT_NAMES}
        kwargs["seed"] = self.seed
        kwargs["duration_us"] = self.duration_us
        for name in ("seed", "duration_us", *COMPONENT_NAMES):
            if name in overrides:
                kwargs[name] = overrides.pop(name)
        return ScenarioConfig(**kwargs, **overrides)

    def streams(self) -> ScenarioStreams:
        """The per-component random streams for this config's seed."""
        return ScenarioStreams(self.seed)

    # --- named scales -----------------------------------------------------

    @classmethod
    def tiny(cls, seed: int = 0, **overrides) -> "ScenarioConfig":
        """A few nodes on one floor for sub-second unit tests."""
        return cls._scaled(
            dict(
                seed=seed,
                duration_us=500_000,
                floors=1,
                aps_per_floor=2,
                n_pods=3,
                n_clients=4,
            ),
            overrides,
        )

    @classmethod
    def small(cls, seed: int = 0, **overrides) -> "ScenarioConfig":
        """One floor, a dozen clients, a few seconds."""
        return cls._scaled(
            dict(
                seed=seed,
                duration_us=3_000_000,
                floors=2,
                aps_per_floor=4,
                n_pods=8,
                n_clients=12,
            ),
            overrides,
        )

    @classmethod
    def building(cls, seed: int = 0, **overrides) -> "ScenarioConfig":
        """The paper's deployment shape, compressed in time.

        ~39 pods x 4 radios ~ 156 monitor radios over 4 floors, ~35 APs on
        channels 1/6/11 — the fleet of Section 3 — with the day-long trace
        compressed into the configured duration.  ``n_pods`` is the nominal
        grid before the uncovered administrative wing (no APs, no pods,
        footnote 2) removes its share, leaving the paper's ~39 deployed
        pods.
        """
        return cls._scaled(
            dict(
                seed=seed,
                duration_us=10_000_000,
                floors=4,
                aps_per_floor=10,
                n_pods=45,
                n_clients=60,
                diurnal=True,
                client_rescan_interval_us=1_500_000,
                uncovered_wing=True,
                # The paper's trace sees broadband interference from
                # microwave ovens (Section 7.1); the duty-cycled noise
                # bursts are also a source of genuine wireless TCP loss
                # for Figure 11.
                microwave=True,
                # The campus wired path is clean relative to the air (the
                # paper's Figure 11 finds the wireless component dominant).
                wired_loss_rate=0.0015,
            ),
            overrides,
        )

    @classmethod
    def _scaled(cls, defaults: dict, overrides: dict) -> "ScenarioConfig":
        """Merge a named scale's flat defaults with caller overrides.

        A component passed whole in ``overrides`` wins over the scale's
        flat defaults for that component (otherwise ``tiny(geometry=...)``
        would have its floors silently reset by the scale).
        """
        merged = dict(defaults)
        for component in COMPONENT_NAMES:
            if component in overrides:
                for name, route in _FLAT_ROUTES.items():
                    if route[0] == component:
                        merged.pop(name, None)
        merged.update(overrides)
        return cls(**merged)

    # --- legacy flat views -------------------------------------------------

    @property
    def floors(self) -> int:
        return self.geometry.floors

    @property
    def aps_per_floor(self) -> int:
        return self.geometry.aps_per_floor

    @property
    def n_pods(self) -> int:
        return self.geometry.n_pods

    @property
    def n_buildings(self) -> int:
        return self.geometry.n_buildings

    @property
    def building_index(self) -> int:
        return self.geometry.building_index

    @property
    def uncovered_wing(self) -> bool:
        return self.geometry.uncovered_wing

    @property
    def n_clients(self) -> int:
        return self.fleet.n_clients

    @property
    def corner_client_fraction(self) -> float:
        return self.fleet.corner_client_fraction

    @property
    def fraction_11b_clients(self) -> float:
        return self.fleet.fraction_11b_clients

    @property
    def tx_power_ap_dbm(self) -> float:
        return self.fleet.tx_power_ap_dbm

    @property
    def tx_power_client_dbm(self) -> float:
        return self.fleet.tx_power_client_dbm

    @property
    def protection_timeout_us(self) -> int:
        return self.fleet.protection_timeout_us

    @property
    def client_rescan_interval_us(self) -> int:
        return self.behavior.rescan_interval_us

    @property
    def wired_loss_rate(self) -> float:
        return self.impairments.wired_loss_rate

    @property
    def wired_rtt_us(self) -> int:
        return self.impairments.wired_rtt_us

    @property
    def arp_interval_us(self) -> int:
        return self.impairments.arp_interval_us

    @property
    def microwave(self) -> bool:
        return self.impairments.microwave

    @property
    def diurnal(self) -> bool:
        return self.workload.diurnal

    # --- derived ----------------------------------------------------------

    @property
    def n_aps(self) -> int:
        return self.geometry.floors * self.geometry.aps_per_floor

    @property
    def n_radios(self) -> int:
        """Monitor radios: each pod is 2 monitors x 2 radios (Section 3.2)."""
        return self.geometry.n_pods * 4

    def diurnal_activity(self, t_us: int) -> float:
        """Relative client activity level at simulated time ``t_us``.

        Maps ``[0, duration]`` onto a 24-hour day and returns a smooth
        curve matching Figure 8's description: most clients active from
        late morning (10am) until late afternoon (5pm), some in the early
        morning and well into the night, a low overnight floor of
        always-on devices.
        """
        if not self.workload.diurnal:
            return 1.0
        hour = 24.0 * (t_us % self.duration_us) / self.duration_us
        # Sum of two gaussian bumps (morning ramp-in, afternoon peak) over
        # a 0.15 overnight floor.
        peak = math.exp(-((hour - 13.5) ** 2) / (2 * 3.2**2))
        evening = 0.35 * math.exp(-((hour - 20.0) ** 2) / (2 * 2.0**2))
        return 0.15 + 0.85 * min(1.0, peak + evening)

    def arrival_envelope(self, t_us: int) -> float:
        """Combined arrival modulation: diurnal curve x flash wave."""
        return self.diurnal_activity(t_us) * self.workload.flash_envelope(
            t_us, self.duration_us
        )
