"""Scenario runner: build the world, run it, hand back every artifact.

This is the substrate's top-level entry point.  Given a
:class:`ScenarioConfig` it assembles the building, the production network
(APs + clients + wired distribution), the monitoring infrastructure (pods
of monitor radios with imperfect clocks), ARP broadcast sources, and the
TCP workload; runs the discrete-event kernel; and returns a
:class:`SimulationArtifacts` bundle containing

* the 150+ per-radio monitor traces (Jigsaw's *input*),
* the wired distribution-network trace (the Section 6 coverage oracle),
* the medium's ground-truth transmission history and flow outcomes (the
  oracle the evaluation scores reconstruction against).

The build phase is separated from execution (:func:`build_scenario` /
:func:`finalize_scenario`) so the streaming feed in
:mod:`repro.sim.stream` can advance the same world incrementally, handing
monitor records to the pipeline as the simulation produces them.

Randomness is split two ways.  The *core* draws — AP/pod/station seeds,
office placements, wired loss, the flow schedule — come from one
seed-chained master generator whose draw order is frozen (regression
suites pin traces produced by it).  Every *composable* behavior on top
(roaming schedules, arrival-wave start times, and any future component)
draws from its own :class:`~repro.sim.scenario.ScenarioStreams` spawn-key
stream, so enabling one component never perturbs another's randomness —
the property the scenario registry's seed-stability tests hold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from ..dot11.address import AP_OUI, CLIENT_OUI, MacAddress, MacAllocator
from ..jtrace.io import RadioTrace
from ..mac.ap import AccessPoint
from ..mac.medium import Medium, Transmission
from ..mac.station import Station
from ..monitor.radio import SensorPod, build_pod
from ..net.arp import ScanArpSource, VernierTracker
from ..net.wired import WiredNetwork, WiredTraceRecord
from ..phy.noisefloor import BroadbandInterferer
from ..phy.propagation import Point, PropagationModel
from ..sim.building import (
    Building,
    Placement,
    assign_channels,
    pod_reduction_order,
)
from ..sim.kernel import Kernel
from ..sim.scenario import ScenarioConfig, ScenarioStreams
from ..sim.workload import FlowRequest, generate_flows
from ..tcp.driver import FlowDriver, FlowOutcome, HostStack, StationStack

#: Wired-side IP plan.
SERVER_IP_BASE = 0xAC_10_00_00      # 172.16.0.0/16: servers
CLIENT_IP_BASE = 0x0A_00_00_00      # 10.0.0.0/16: wireless clients
VERNIER_IP = SERVER_IP_BASE | 0xFFFF


@dataclass(frozen=True)
class RoamEvent:
    """Ground truth for one client handoff (AP actually changed)."""

    time_us: int
    station_index: int
    from_ap: MacAddress
    to_ap: MacAddress
    position: Point


@dataclass
class SimulationArtifacts:
    """Everything a run produces, oracle included."""

    config: ScenarioConfig
    building: Building
    medium: Medium
    wired: WiredNetwork
    aps: List[AccessPoint]
    ap_placements: List[Placement]
    stations: List[Station]
    station_placements: List[Placement]
    pods: List[SensorPod]
    pod_placements: List[Placement]
    flows: List[FlowRequest]
    flow_outcomes: List[FlowOutcome]
    events_run: int
    roam_events: List[RoamEvent] = field(default_factory=list)

    @property
    def radio_traces(self) -> List[RadioTrace]:
        """The monitor traces — Jigsaw's input.

        Empty for a streamed run: :func:`repro.sim.stream.stream_scenario`
        moves record ownership into the consuming
        :class:`~repro.jtrace.io.RadioTrace` readers.
        """
        return [radio.trace for pod in self.pods for radio in pod.radios]

    @property
    def ground_truth(self) -> List[Transmission]:
        """Every transmission that ever hit the air, in true-time order."""
        return self.medium.history

    @property
    def wired_trace(self) -> List[WiredTraceRecord]:
        return self.wired.trace

    def pod_reduction_order(self) -> List[int]:
        """Pod indices in Figure 7 removal order (most redundant first)."""
        return pod_reduction_order(self.pod_placements)

    def radios_of_pods(self, pod_indices) -> List[int]:
        """Radio ids belonging to the given pod indices."""
        wanted = set(pod_indices)
        return [
            radio.radio_id
            for index, pod in enumerate(self.pods)
            if index in wanted
            for radio in pod.radios
        ]

    def clock_groups(self) -> List[List[int]]:
        """Radio ids sharing one capture clock (the two radios per monitor)."""
        return clock_groups_of(self.pods)


def clock_groups_of(pods: List[SensorPod]) -> List[List[int]]:
    """Radio ids sharing one capture clock, per monitor, across ``pods``.

    This is infrastructure metadata, not trace content: the real
    deployment knows it from its driver configuration (Section 3.3), and
    bootstrap synchronization uses it to bridge across channels.
    """
    groups: List[List[int]] = []
    for pod in pods:
        by_clock: Dict[int, List[int]] = {}
        for radio in pod.radios:
            by_clock.setdefault(id(radio.clock), []).append(radio.radio_id)
        groups.extend(ids for ids in by_clock.values() if len(ids) > 1)
    return groups


@dataclass
class ScenarioWorld:
    """A fully wired, not-yet-run scenario.

    :func:`build_scenario` produces one; either :func:`run_scenario`
    drives its kernel to the configured duration in one go, or the
    streaming feed (:mod:`repro.sim.stream`) advances it chunk by chunk
    while the pipeline consumes records.
    """

    config: ScenarioConfig
    kernel: Kernel
    medium: Medium
    wired: WiredNetwork
    building: Building
    aps: List[AccessPoint]
    ap_placements: List[Placement]
    stations: List[Station]
    station_placements: List[Placement]
    pods: List[SensorPod]
    pod_placements: List[Placement]
    flows: List[FlowRequest]
    drivers: List[FlowDriver]
    roam_events: List[RoamEvent]

    def clock_groups(self) -> List[List[int]]:
        return clock_groups_of(self.pods)


def build_scenario(config: ScenarioConfig) -> ScenarioWorld:
    """Assemble (but do not run) one scenario's complete world."""
    master_rng = np.random.default_rng(config.seed)
    streams = config.streams()
    kernel = Kernel()
    propagation = PropagationModel(shadowing_seed=config.seed)
    interferers = []
    if config.microwave:
        # A microwave oven in a mid-building kitchenette.  Burst length
        # (~40 ms) deliberately exceeds a full ARQ exchange (7 attempts in
        # ~15 ms), so nearby stations suffer whole-exchange failures — the
        # wireless TCP losses of Figure 11 — not just extra retries.
        interferers.append(
            BroadbandInterferer(
                position=(55.0, 5.0, 2.5),
                power_dbm=28.0,
                period_us=200_000,
                duty_cycle=0.55,
            )
        )
        # A second oven on the third floor widens the affected population.
        interferers.append(
            BroadbandInterferer(
                position=(30.0, 12.0, 10.5),
                power_dbm=28.0,
                period_us=260_000,
                duty_cycle=0.5,
                start_us=40_000,
            )
        )
    medium = Medium(kernel, propagation, interferers)
    building = Building(floors=config.floors)

    # --- production network -------------------------------------------------
    exclude_wings = [(0, 0)] if config.uncovered_wing else []
    # Campus buildings mint from disjoint 4096-address blocks: identical
    # addresses across RF-isolated buildings would make frames content-
    # identical, and content identity is how the unifier and the bootstrap
    # recognize one transmission (building 0 keeps the standalone block).
    mac_block = 1 + config.building_index * 0x1000
    ap_alloc = MacAllocator(AP_OUI, start=mac_block)
    ap_placements = building.place_aps(
        config.aps_per_floor, exclude_wings=exclude_wings
    )
    ap_channels = assign_channels(ap_placements)
    aps: List[AccessPoint] = []
    for placement, channel in zip(ap_placements, ap_channels):
        aps.append(
            AccessPoint(
                kernel,
                medium,
                ap_alloc.allocate(),
                placement.position,
                channel,
                config.tx_power_ap_dbm,
                np.random.default_rng(master_rng.integers(0, 2**63)),
                protection_timeout_us=config.protection_timeout_us,
            )
        )

    # --- monitoring infrastructure ---------------------------------------------
    pod_placements = building.place_pods(
        config.n_pods, exclude_wings=exclude_wings
    )
    pods: List[SensorPod] = []
    for pod_id, placement in enumerate(pod_placements):
        pods.append(
            build_pod(
                kernel,
                medium,
                pod_id,
                placement.position,
                config.clocks,
                np.random.default_rng(master_rng.integers(0, 2**63)),
                first_radio_id=pod_id * 4,
            )
        )

    # --- clients -----------------------------------------------------------------
    behavior = config.behavior
    client_alloc = MacAllocator(CLIENT_OUI, start=mac_block)
    if config.fleet.placement == "hotspot":
        station_placements = building.place_clients_hotspot(
            config.n_clients, master_rng
        )
    else:
        station_placements = building.place_clients(
            config.n_clients, master_rng, config.corner_client_fraction
        )
    n_11b = int(round(config.n_clients * config.fraction_11b_clients))
    stations: List[Station] = []
    for index, placement in enumerate(station_placements):
        ap = _strongest_ap(
            placement.position, aps, ap_placements, propagation, config
        )
        # The legacy stagger draw is always consumed (the master chain's
        # draw order is frozen); an arrival-wave window replaces only the
        # value, from the behavior component's own stream.
        start_us = int(
            master_rng.uniform(0, min(500_000, config.duration_us // 4))
        )
        if behavior.start_window_us is not None:
            window = min(behavior.start_window_us, config.duration_us)
            start_us = int(
                streams.entity("arrival", index).uniform(0, window)
            )
        stations.append(
            Station(
                kernel,
                medium,
                client_alloc.allocate(),
                placement.position,
                config.tx_power_client_dbm,
                np.random.default_rng(master_rng.integers(0, 2**63)),
                ap=ap,
                supports_ofdm=index >= n_11b,
                start_us=start_us,
                rescan_interval_us=behavior.rescan_interval_us,
                probe_burst=behavior.probe_burst,
                scan_sweep=behavior.scan_sweep,
            )
        )

    # --- wired side -----------------------------------------------------------------
    wired = WiredNetwork(
        kernel,
        np.random.default_rng(master_rng.integers(0, 2**63)),
        loss_rate=config.wired_loss_rate,
        rtt_us=config.wired_rtt_us,
    )
    for ap in aps:
        wired.register_ap(ap)
    client_ips: Dict[int, int] = {}
    for index, station in enumerate(stations):
        ip = CLIENT_IP_BASE | (index + 1)
        client_ips[index] = ip
        wired.register_client(station.mac, ip, station.ap)

    VernierTracker(
        kernel,
        wired,
        client_ips=list(client_ips.values()),
        interval_us=config.arp_interval_us,
        server_ip=VERNIER_IP,
    )
    ScanArpSource(
        kernel,
        wired,
        np.random.default_rng(master_rng.integers(0, 2**63)),
        mean_interval_us=config.arp_interval_us * 4,
    )

    # --- roaming ---------------------------------------------------------------------
    roam_events: List[RoamEvent] = []
    if behavior.roam_fraction > 0 and behavior.roam_interval_us > 0:
        _RoamScheduler(
            kernel=kernel,
            config=config,
            building=building,
            propagation=propagation,
            wired=wired,
            aps=aps,
            ap_placements=ap_placements,
            stations=stations,
            streams=streams,
            roam_events=roam_events,
        )

    # --- workload --------------------------------------------------------------------
    flows = generate_flows(
        config, np.random.default_rng(master_rng.integers(0, 2**63))
    )
    station_stacks = [StationStack(station) for station in stations]
    host_stacks: Dict[int, HostStack] = {}
    drivers: List[FlowDriver] = []
    next_client_port: Dict[int, int] = {}
    for flow_index, flow in enumerate(flows):
        server_ip = SERVER_IP_BASE | (1 + flow_index % 32)
        if server_ip not in host_stacks:
            host_stacks[server_ip] = HostStack(wired.add_host(server_ip))
        port = next_client_port.get(flow.client_index, 40_000)
        next_client_port[flow.client_index] = port + 1
        drivers.append(
            FlowDriver(
                kernel,
                np.random.default_rng(master_rng.integers(0, 2**63)),
                flow,
                station_stacks[flow.client_index],
                client_ips[flow.client_index],
                host_stacks[server_ip],
                wired,
                client_port=port,
            )
        )

    return ScenarioWorld(
        config=config,
        kernel=kernel,
        medium=medium,
        wired=wired,
        building=building,
        aps=aps,
        ap_placements=ap_placements,
        stations=stations,
        station_placements=station_placements,
        pods=pods,
        pod_placements=pod_placements,
        flows=flows,
        drivers=drivers,
        roam_events=roam_events,
    )


def finalize_scenario(world: ScenarioWorld) -> SimulationArtifacts:
    """Close out a world whose kernel has reached the configured duration."""
    for driver in world.drivers:
        driver.client.abort() if not driver.client.finished else None
        driver.server.abort() if not driver.server.finished else None
    return SimulationArtifacts(
        config=world.config,
        building=world.building,
        medium=world.medium,
        wired=world.wired,
        aps=world.aps,
        ap_placements=world.ap_placements,
        stations=world.stations,
        station_placements=world.station_placements,
        pods=world.pods,
        pod_placements=world.pod_placements,
        flows=world.flows,
        flow_outcomes=[driver.outcome for driver in world.drivers],
        events_run=world.kernel.events_run,
        roam_events=world.roam_events,
    )


def run_scenario(config: ScenarioConfig) -> SimulationArtifacts:
    """Build and run one scenario end to end."""
    world = build_scenario(config)
    world.kernel.run_until(config.duration_us)
    return finalize_scenario(world)


class _RoamScheduler:
    """Moves roaming clients between offices (and APs) during the run.

    Which clients roam, when they move, and where they go all come from
    the ``roam`` spawn-key streams — one per roaming station — so the
    roaming component composes with every other scenario component
    without perturbing the master chain's draws.
    """

    def __init__(
        self,
        kernel: Kernel,
        config: ScenarioConfig,
        building: Building,
        propagation: PropagationModel,
        wired: WiredNetwork,
        aps: List[AccessPoint],
        ap_placements: List[Placement],
        stations: List[Station],
        streams: ScenarioStreams,
        roam_events: List[RoamEvent],
    ) -> None:
        self._kernel = kernel
        self._config = config
        self._building = building
        self._propagation = propagation
        self._wired = wired
        self._aps = aps
        self._ap_placements = ap_placements
        self._stations = stations
        self._roam_events = roam_events
        self._interval_us = config.behavior.roam_interval_us
        n_roamers = int(round(config.n_clients * config.behavior.roam_fraction))
        if n_roamers == 0:
            return
        chooser = streams.component("roam")
        roamers = sorted(
            int(i)
            for i in chooser.choice(
                config.n_clients, size=n_roamers, replace=False
            )
        )
        for index in roamers:
            self._schedule_move(index, streams.entity("roam", index))

    def _schedule_move(self, index: int, rng: np.random.Generator) -> None:
        delay = max(1, int(rng.exponential(self._interval_us)))
        self._kernel.after(delay, lambda: self._move(index, rng))

    def _move(self, index: int, rng: np.random.Generator) -> None:
        placement = self._building.random_client_placement(
            rng, self._config.corner_client_fraction
        )
        station = self._stations[index]
        best = _strongest_ap(
            placement.position,
            self._aps,
            self._ap_placements,
            self._propagation,
            self._config,
        )
        previous = station.ap
        station.roam_to(placement.position, best)
        if best is not previous:
            self._wired.reassign_client(station.mac, best)
            self._roam_events.append(
                RoamEvent(
                    time_us=self._kernel.now_us,
                    station_index=index,
                    from_ap=previous.mac,
                    to_ap=best.mac,
                    position=placement.position,
                )
            )
        self._schedule_move(index, rng)


def _strongest_ap(
    position: Point,
    aps: List[AccessPoint],
    ap_placements: List[Placement],
    propagation: PropagationModel,
    config: ScenarioConfig,
) -> AccessPoint:
    """The AP a client at ``position`` would associate with: best RSSI."""
    best_ap = aps[0]
    best_rssi = float("-inf")
    for ap, ap_placement in zip(aps, ap_placements):
        rssi = propagation.rssi_dbm(
            config.tx_power_ap_dbm, ap_placement.position, position
        )
        if rssi > best_rssi:
            best_rssi = rssi
            best_ap = ap
    return best_ap
