"""Experiment S1 — the scenario-family sweep.

Reproduction credibility comes from sweeping scenario *families*, not one
canonical run: the registry's workload families
(:mod:`repro.sim.registry`) each stress a different slice of the paper's
analyses, and this module runs the reconstruction across all of them.

:func:`get_family_run` is one cached simulate+reconstruct per family
config, shared with the table/figure experiments via the common run
cache.  ``tests/paper/test_scenarios.py`` checks each family's signal
and pipeline rate on those runs; timing lives in ``benchmarks/e2e``.
"""

from __future__ import annotations

from ..sim.registry import REGISTRY, scenario_config
from .common import DEFAULT_SEED, ExperimentRun, get_run


def get_family_run(
    family: str,
    scale: str = "small",
    seed: int = DEFAULT_SEED,
    **overrides,
) -> ExperimentRun:
    """The cached simulate+reconstruct for one registered family."""
    return get_run(scenario_config(family, scale=scale, seed=seed, **overrides))


def main() -> None:
    print("=== Scenario-family sweep (small scale) ===")
    for name in REGISTRY.names():
        run = get_family_run(name)
        stats = run.report.unification.stats
        print(
            f"  {name:16s} {stats.records_in:>8,} records  "
            f"{stats.jframes:>7,} jframes  "
            f"flows={len(run.report.flows)}  "
            f"roam={len(run.artifacts.roam_events)}"
        )
    print()
    print("Registered families:")
    for family in REGISTRY:
        print(f"  {family.name:16s} {family.paper_focus}")


if __name__ == "__main__":
    main()
