"""Campus composition: many RF-isolated buildings, one trace set.

The paper's deployment is one building; campus scale grows the fleet by
*buildings*, not by densifying one building.  Buildings are RF-isolated
— no transmission is audible in two of them — so a campus simulation is
exactly the composition of independent single-building simulations.
:func:`repro.sim.runner.run_scenario` and
:func:`repro.sim.stream.stream_scenario` build one world per building
this module names:

* each building runs under its own sub-seed (derived from the campus
  seed through the fixed ``campus`` spawn key, so building b's world is
  stable no matter how many buildings exist or in what order they run)
  and mints MAC addresses from its own block;
* radio ids are offset by a per-building stride (``4 * n_pods``, the id
  space one building's pods can occupy) into disjoint ranges, and every
  trace is stamped with its ``building_id`` — the locality key
  hierarchical sharding partitions on;
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

from dataclasses import replace
from typing import List

import numpy as np

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


def building_configs(config: ScenarioConfig) -> List[ScenarioConfig]:
    """The configuration of every building ``config`` names, in building
    order: ``config`` itself when it names one."""
    if config.n_buildings == 1:
        return [config]
    return [building_config(config, b) for b in range(config.n_buildings)]
