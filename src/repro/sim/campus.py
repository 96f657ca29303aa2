"""Campus composition: many RF-isolated buildings, one trace set.

The paper's deployment is one building; campus scale grows the fleet by
*buildings*, not by densifying one building.  Buildings are RF-isolated
— no transmission is audible in two of them — so a campus simulation is
exactly the composition of independent single-building simulations:

* each building runs :func:`repro.sim.runner.run_scenario` with its own
  sub-seed (derived from the campus seed through the fixed ``campus``
  spawn key, so building b's world is stable no matter how many
  buildings exist or in what order they run);
* radio ids are offset by a per-building stride (``4 * n_pods``, the
  id space one building's pods can occupy) into disjoint ranges, MAC
  allocators onto disjoint per-building address blocks, and every trace
  is stamped with its ``building_id`` — the locality key hierarchical
  sharding partitions on;
* clock groups are offset the same way.  Buildings share no
  observations and no clocks, so each is its own synchronization
  island; the bootstrap follows the ``building_id`` stamps, not an
  argument: a fully stamped fleet synchronizes each building's island
  on its own local timeline, and no radio is quarantined (verified by
  the campus tests).  Cross-building timestamps are only aligned up to the
  per-island reference offsets, which is exactly the paper's situation
  for radios that never hear a common frame — and harmless here,
  because no transmission spans buildings.

Composition deliberately does **not** build one giant scenario world:
a single world's master RNG draw order would shift with every fleet
change (breaking the frozen golden traces), and an n-building event
kernel would serialize n buildings' events through one heap for no
physical reason.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List

import numpy as np

from ..jtrace.io import RadioTrace
from .runner import SimulationArtifacts, run_scenario
from .scenario import ScenarioConfig, _STREAM_KEYS


def building_stride(config: ScenarioConfig) -> int:
    """Radio-id stride between buildings (one building's full id space)."""
    return 4 * config.n_pods


def building_config(config: ScenarioConfig, building: int) -> ScenarioConfig:
    """The single-building configuration campus building ``b`` runs.

    The sub-seed comes from ``SeedSequence(seed, spawn_key=(campus, b))``
    — stable per (campus seed, building index), independent of
    ``n_buildings`` — so growing a campus from 4 to 8 buildings reruns
    nothing in the first 4.  Sub-seeding de-correlates placements and
    workloads; ``building_index`` additionally moves each building's MAC
    allocators onto a disjoint address block, because sub-seeding alone
    does *not* de-correlate addresses (allocation is sequential): two
    buildings sharing AP #1's BSSID would emit content-identical frames
    that the unifier would coalesce and the bootstrap would treat as
    shared references, spuriously bridging RF-isolated islands.
    """
    sub_seed = int(
        np.random.SeedSequence(
            config.seed, spawn_key=(_STREAM_KEYS["campus"], building)
        ).generate_state(1)[0]
    )
    return config.with_overrides(
        seed=sub_seed,
        geometry=replace(
            config.geometry, n_buildings=1, building_index=building
        ),
    )


@dataclass
class CampusArtifacts:
    """What a campus run produces: the merge pipeline's campus input.

    Unlike :class:`~repro.sim.runner.SimulationArtifacts` this holds the
    cross-building views the pipeline consumes — id-offset, building-
    stamped traces and clock groups — plus the per-building artifacts
    for analyses that want one building's oracle.
    """

    config: ScenarioConfig
    traces: List[RadioTrace]
    clock_groups: List[List[int]]
    events_run: int
    n_flows: int
    buildings: List[SimulationArtifacts]


def run_campus(config: ScenarioConfig) -> CampusArtifacts:
    """Run ``config.n_buildings`` independent buildings and compose them.

    A 1-building campus is exactly ``run_scenario(config)`` (same seed,
    same world, same draws) with ``building_id=0`` stamped on the
    traces.
    """
    n = config.n_buildings
    stride = building_stride(config)
    traces: List[RadioTrace] = []
    clock_groups: List[List[int]] = []
    buildings: List[SimulationArtifacts] = []
    events_run = 0
    n_flows = 0
    for b in range(n):
        sub = config if n == 1 else building_config(config, b)
        artifacts = run_scenario(sub)
        buildings.append(artifacts)
        offset = b * stride
        for trace in artifacts.radio_traces:
            # Reuses the record lists — the per-building artifacts and
            # the campus view share them (records are immutable).
            traces.append(
                RadioTrace(
                    trace.radio_id + offset,
                    trace.channel,
                    trace.records,
                    building_id=b,
                )
            )
        for group in artifacts.clock_groups():
            clock_groups.append([rid + offset for rid in group])
        events_run += artifacts.events_run
        n_flows += len(artifacts.flows)
    return CampusArtifacts(
        config=config,
        traces=traces,
        clock_groups=clock_groups,
        events_run=events_run,
        n_flows=n_flows,
        buildings=buildings,
    )
