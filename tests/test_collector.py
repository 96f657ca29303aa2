"""What pausing the cycle collector during a batch run relies on.

``JigsawPipeline.run`` pauses automatic cyclic collection for its whole
body.  That is safe only because a batch run makes no cyclic garbage,
so nothing a collection could free piles up while it is off: every
registry family, from memory (materialized or not) and from files,
clean or damaged, leaves ``gc.collect()`` nothing to find while its
report is still alive.  The run must also hand the caller back the
collector state it found, on every exit.
"""

import gc

import pytest

from repro.core.passes import PipelinePass
from repro.core.pipeline import JigsawPipeline
from repro.jtrace.io import open_trace_streams, write_traces
from repro.sim import (
    REGISTRY,
    FaultConfig,
    run_campus,
    scenario_config,
    write_faulty_traces,
)

SEED = 17

#: ``test_reconstruction_determinism``'s damaged ``flash_crowd`` case.
FILE_DAMAGE = FaultConfig(corrupt_rate=0.02, truncate_radios=1)


@pytest.fixture(scope="module")
def simulate():
    """``simulate(family, **overrides)``: a tiny campus at ``SEED``,
    simulated once per module."""
    campuses = {}

    def get(family, **overrides):
        key = (family, tuple(sorted(overrides.items())))
        if key not in campuses:
            config = scenario_config(family, scale="tiny", seed=SEED)
            if overrides:
                config = config.with_overrides(**overrides)
            campuses[key] = (config, run_campus(config))
        return campuses[key]

    return get


def unreachable_after(run):
    """How many unreachable objects a full collection finds right after
    ``run()``, with the report it returned still alive."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        report = run()
        found = gc.collect()
        assert report is not None
    finally:
        if enabled:
            gc.enable()
    return found


@pytest.mark.parametrize("family", sorted(REGISTRY.names()))
@pytest.mark.parametrize("materialize", [True, False])
def test_memory_run_makes_no_cyclic_garbage(family, materialize, simulate):
    _, campus = simulate(family)
    assert unreachable_after(
        lambda: JigsawPipeline().run(
            campus.traces,
            clock_groups=campus.clock_groups,
            materialize=materialize,
        )
    ) == 0


@pytest.mark.parametrize("family", sorted(REGISTRY.names()))
def test_files_run_makes_no_cyclic_garbage(family, tmp_path, simulate):
    _, campus = simulate(family)
    write_traces(campus.traces, tmp_path)
    assert unreachable_after(
        lambda: JigsawPipeline().run(
            open_trace_streams(tmp_path), clock_groups=campus.clock_groups
        )
    ) == 0


def test_damaged_files_run_makes_no_cyclic_garbage(tmp_path, simulate):
    config, campus = simulate("flash_crowd", faults=FILE_DAMAGE)
    plan = write_faulty_traces(campus.traces, tmp_path, config)
    assert plan.corrupted_records and plan.truncated

    def run():
        report = JigsawPipeline().run(
            open_trace_streams(tmp_path, policy="skip"),
            clock_groups=campus.clock_groups,
        )
        assert not report.health.ingest.clean
        return report

    assert unreachable_after(run) == 0


class CollectorProbe(PipelinePass):
    """Records whether automatic collection was on at each jframe."""

    name = "collector_probe"

    def __init__(self):
        self.seen = set()

    def on_jframe(self, jframe):
        self.seen.add(gc.isenabled())

    def finish(self, context):
        return sorted(self.seen)


class Boom(RuntimeError):
    pass


class RaisingPass(PipelinePass):
    name = "raising"

    def on_jframe(self, jframe):
        raise Boom


@pytest.fixture
def collector_on():
    """Start with the collector enabled; end with the state found."""
    enabled = gc.isenabled()
    gc.enable()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


def run_probed(campus):
    report = JigsawPipeline().run(
        campus.traces,
        clock_groups=campus.clock_groups,
        passes=[CollectorProbe()],
    )
    return report.passes["collector_probe"]


def test_run_pauses_collection_and_restores_it(collector_on, simulate):
    _, campus = simulate("hidden_terminal")
    assert run_probed(campus) == [False]
    assert gc.isenabled()


def test_run_leaves_a_disabled_collector_disabled(collector_on, simulate):
    _, campus = simulate("hidden_terminal")
    gc.disable()
    assert run_probed(campus) == [False]
    assert not gc.isenabled()


def test_raising_pass_restores_collection(collector_on, simulate):
    _, campus = simulate("hidden_terminal")
    with pytest.raises(Boom):
        JigsawPipeline().run(
            campus.traces,
            clock_groups=campus.clock_groups,
            passes=[RaisingPass()],
        )
    assert gc.isenabled()


def test_strict_truncated_read_restores_collection(
    collector_on, tmp_path, simulate
):
    config, campus = simulate(
        "flash_crowd", faults=FaultConfig(truncate_radios=1)
    )
    plan = write_faulty_traces(campus.traces, tmp_path, config)
    assert plan.truncated
    with pytest.raises(ValueError, match="truncated"):
        JigsawPipeline().run(
            open_trace_streams(tmp_path), clock_groups=campus.clock_groups
        )
    assert gc.isenabled()
