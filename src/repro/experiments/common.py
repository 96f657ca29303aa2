"""Shared experiment plumbing: cached scenario runs and pipeline reports.

Every table/figure experiment needs a simulated deployment plus a Jigsaw
reconstruction of its traces.  Building-scale runs cost tens of seconds, so
experiments share one cached run per scenario config within a process.
That one run carries every paper analysis as a pass (:func:`paper_passes`),
so each table/figure reads its result off ``run.report.passes``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..core.analysis import (
    ActivityPass,
    BroadcastAirtimePass,
    DispersionPass,
    InterferencePass,
    ProtectionPass,
    StationTracker,
    SummaryPass,
    TcpLossPass,
    WiredCoveragePass,
)
from ..core.passes import PipelinePass
from ..core.pipeline import JigsawPipeline, JigsawReport
from ..sim.runner import SimulationArtifacts, run_scenario
from ..sim.scenario import ScenarioConfig

#: The default seed used across the experiments.
DEFAULT_SEED = 7

#: Compressed "day": the paper's 24 h trace mapped onto 8 simulated
#: seconds, so a one-minute paper bin corresponds to a third of a second.
BUILDING_DURATION_US = 8_000_000

#: Bins per "day" — the compressed analogue of the paper's minutes
#: (Figures 8 and 10).
BINS_PER_DAY = 24

#: Compressed traces carry fewer packets per pair than a full day; the
#: paper's >=100-packet cut for Figure 9 scales to this to keep a usable
#: pair population.
MIN_PACKETS = 30


@dataclass
class ExperimentRun:
    """One simulated deployment plus its Jigsaw reconstruction."""

    artifacts: SimulationArtifacts
    report: JigsawReport

    @property
    def config(self) -> ScenarioConfig:
        return self.artifacts.config

    @property
    def duration_us(self) -> int:
        return self.config.duration_us


_CACHE: Dict[ScenarioConfig, ExperimentRun] = {}


def paper_passes(
    config: ScenarioConfig, artifacts: SimulationArtifacts
) -> List[PipelinePass]:
    """The Section 6/7 analyses every experiment run carries, keyed by
    name on ``report.passes`` and sharing one station classifier."""
    duration_us = config.duration_us
    bin_us = max(1, duration_us // BINS_PER_DAY)
    # Figure 10's practical timeout compresses with the day, but must
    # comfortably exceed the clients' background-probe cadence —
    # otherwise every AP looks overprotective between probes, which the
    # paper's real minutes vs seconds-scale probing never suffered.
    practical_timeout_us = max(
        duration_us // BINS_PER_DAY,
        2 * max(1, config.client_rescan_interval_us),
    )
    tracker = StationTracker()
    return [
        ActivityPass(duration_us, bin_us=bin_us, tracker=tracker),
        BroadcastAirtimePass(duration_us),
        DispersionPass(),
        InterferencePass(min_packets=MIN_PACKETS, tracker=tracker),
        ProtectionPass(
            duration_us,
            bin_us=bin_us,
            practical_timeout_us=practical_timeout_us,
            tracker=tracker,
        ),
        SummaryPass(duration_us, tracker=tracker),
        TcpLossPass(),
        WiredCoveragePass(artifacts.wired_trace),
    ]


def building_config(seed: int = DEFAULT_SEED, **overrides) -> ScenarioConfig:
    """The canonical experiment scenario: the paper's deployment shape."""
    defaults = dict(duration_us=BUILDING_DURATION_US)
    defaults.update(overrides)
    return ScenarioConfig.building(seed=seed, **defaults)


def get_run(config: ScenarioConfig) -> ExperimentRun:
    """Fetch (or compute and cache) a scenario run + pipeline report.

    The run registers :func:`paper_passes`.  A frozen ``ScenarioConfig``
    determines its run, so the config alone is the cache key.  The
    pipeline pauses automatic collection while it runs, so
    ``report.elapsed_seconds`` times this reconstruction and its passes,
    not collections over the objects of runs cached earlier.
    """
    if config not in _CACHE:
        artifacts = run_scenario(config)
        report = JigsawPipeline().run(
            artifacts.radio_traces,
            clock_groups=artifacts.clock_groups(),
            passes=paper_passes(config, artifacts),
        )
        _CACHE[config] = ExperimentRun(artifacts=artifacts, report=report)
    return _CACHE[config]


def get_building_run(seed: int = DEFAULT_SEED) -> ExperimentRun:
    """The shared building-scale run most table/figure experiments use."""
    return get_run(building_config(seed))


def clear_cache() -> None:
    _CACHE.clear()
