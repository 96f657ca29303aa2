"""Shared experiment plumbing: cached scenario runs and pipeline reports.

Every table/figure experiment needs a simulated deployment plus a Jigsaw
reconstruction of its traces.  Building-scale runs cost tens of seconds, so
experiments share one cached run per (scenario name, seed) within a
process; benchmarks then time only the analysis under study.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from ..core.pipeline import JigsawPipeline, JigsawReport
from ..sim.registry import SCENARIO_SCHEMA_VERSION
from ..sim.runner import SimulationArtifacts, run_scenario
from ..sim.scenario import ScenarioConfig

#: The default seed used across the benchmark suite.
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


_CACHE: Dict[Tuple[str, int, str], ExperimentRun] = {}


def _config_fingerprint(config: ScenarioConfig, family: Optional[str]) -> str:
    """A deterministic digest of every scenario knob, schema-qualified.

    ``ScenarioConfig`` is a frozen dataclass of plain values (and nested
    frozen dataclasses), so its ``repr`` enumerates the full
    configuration — callers that share a cache name but override any
    knob get distinct cache entries instead of silently sharing a run.
    The registry schema version and the scenario family name are folded
    in, so artifacts cached for a pre-refactor config (or for another
    family that happens to share a cache name) can never be served for a
    new-style scenario.
    """
    return (
        f"schema-v{SCENARIO_SCHEMA_VERSION}:"
        f"family={family or '-'}:{config!r}"
    )


def building_config(seed: int = DEFAULT_SEED, **overrides) -> ScenarioConfig:
    """The canonical benchmark scenario: the paper's deployment shape."""
    defaults = dict(duration_us=BUILDING_DURATION_US)
    defaults.update(overrides)
    return ScenarioConfig.building(seed=seed, **defaults)


def small_config(seed: int = DEFAULT_SEED, **overrides) -> ScenarioConfig:
    return ScenarioConfig.small(seed=seed, **overrides)


def get_run(
    name: str,
    config_factory: Callable[[], ScenarioConfig],
    seed: int = DEFAULT_SEED,
    family: Optional[str] = None,
) -> ExperimentRun:
    """Fetch (or compute and cache) a scenario run + pipeline report.

    The cache key includes a fingerprint of the *full* config the factory
    produces — not just ``(name, seed)`` — so two callers sharing a name
    but differing in any override each get their own run.  ``family``
    names the registry family the run belongs to (when there is one); it
    and the registry schema version are part of the fingerprint.
    """
    config = config_factory()
    key = (name, seed, _config_fingerprint(config, family))
    if key not in _CACHE:
        artifacts = run_scenario(config)
        report = JigsawPipeline().run(
            artifacts.radio_traces, clock_groups=artifacts.clock_groups()
        )
        _CACHE[key] = ExperimentRun(artifacts=artifacts, report=report)
    return _CACHE[key]


def get_building_run(seed: int = DEFAULT_SEED) -> ExperimentRun:
    """The shared building-scale run used by most table/figure benches."""
    return get_run("building", lambda: building_config(seed), seed)


def get_small_run(seed: int = DEFAULT_SEED) -> ExperimentRun:
    """A faster run for experiments that don't need the full fleet."""
    return get_run("small", lambda: small_config(seed), seed)


def clear_cache() -> None:
    _CACHE.clear()
