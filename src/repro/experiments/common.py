"""Shared experiment plumbing: cached scenario runs and pipeline reports.

Every table/figure experiment needs a simulated deployment plus a Jigsaw
reconstruction of its traces.  Building-scale runs cost tens of seconds, so
experiments share one cached run per scenario config within a process;
the paper-claim tests (``tests/paper``) then run only the analysis under
study.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from typing import Dict

from ..core.pipeline import JigsawPipeline, JigsawReport
from ..sim.runner import SimulationArtifacts, run_scenario
from ..sim.scenario import ScenarioConfig

#: The default seed used across the experiments.
DEFAULT_SEED = 7

#: Compressed "day": the paper's 24 h trace mapped onto 8 simulated
#: seconds, so a one-minute paper bin corresponds to a third of a second.
BUILDING_DURATION_US = 8_000_000


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


def building_config(seed: int = DEFAULT_SEED, **overrides) -> ScenarioConfig:
    """The canonical experiment scenario: the paper's deployment shape."""
    defaults = dict(duration_us=BUILDING_DURATION_US)
    defaults.update(overrides)
    return ScenarioConfig.building(seed=seed, **defaults)


def get_run(config: ScenarioConfig) -> ExperimentRun:
    """Fetch (or compute and cache) a scenario run + pipeline report.

    A frozen ``ScenarioConfig`` determines its run, so the config alone
    is the cache key.  Everything alive before the reconstruction —
    this run's simulation and every run cached earlier — is frozen out
    of the garbage collector while it runs, so ``report.elapsed_seconds``
    times this pipeline, not full collections over other runs' objects.
    """
    if config not in _CACHE:
        artifacts = run_scenario(config)
        gc.collect()
        gc.freeze()
        try:
            report = JigsawPipeline().run(
                artifacts.radio_traces, clock_groups=artifacts.clock_groups()
            )
        finally:
            gc.unfreeze()
        _CACHE[config] = ExperimentRun(artifacts=artifacts, report=report)
    return _CACHE[config]


def get_building_run(seed: int = DEFAULT_SEED) -> ExperimentRun:
    """The shared building-scale run most table/figure experiments use."""
    return get_run(building_config(seed))


def clear_cache() -> None:
    _CACHE.clear()
