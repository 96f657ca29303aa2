"""Jframes hold columns; an :class:`Instance` is only ever read.

* the merge builds no instance: after a ``materialize=False`` batch run
  and a checkpointing daemon run, the heap holds none it did not before;
* on the tiny building, flash-crowd and campus corpora every built
  instance is exactly what the merge used to store for its record.
"""

import gc

import pytest

from repro.core.pipeline import JigsawPipeline
from repro.core.sync.refs import parse_record_frame
from repro.core.unify.jframe import Instance
from repro.jtrace.records import RecordKind
from repro.service import JigsawDaemon
from repro.sim import run_scenario
from repro.sim.registry import scenario_config
from repro.sim.stream import live_feed

SEED = 6


def live_instances():
    return {id(obj) for obj in gc.get_objects() if type(obj) is Instance}


def test_merge_builds_no_instance(tmp_path):
    config = scenario_config("flash_crowd", "tiny", seed=SEED)
    artifacts = run_scenario(config)
    before = live_instances()
    report = JigsawPipeline().run(
        artifacts.radio_traces,
        clock_groups=artifacts.clock_groups(),
        materialize=False,
    )
    daemon = JigsawDaemon(
        live_feed(config),
        materialize=False,
        checkpoint_path=tmp_path / "svc.ckpt",
        checkpoint_every=500,
    )
    svc = daemon.serve()
    assert report.unification.stats.jframes > 0
    assert svc is not None and svc.checkpoints_written > 0
    assert live_instances() <= before


@pytest.fixture(
    scope="module", params=["building", "flash_crowd", "campus"]
)
def unified(request):
    family = request.param
    if family == "campus":
        campus = run_scenario(
            scenario_config("campus", "tiny", seed=SEED, n_buildings=4)
        )
        traces, groups = campus.radio_traces, campus.clock_groups()
    else:
        artifacts = run_scenario(scenario_config(family, "tiny", seed=SEED))
        traces, groups = artifacts.radio_traces, artifacts.clock_groups()
    return JigsawPipeline().run(traces, clock_groups=groups).jframes


def test_built_instances_match_the_per_record_definition(unified):
    kinds = set()
    for jframe in unified:
        expected = [
            (
                radio_id,
                record.timestamp_us,
                universal,
                record,
                parse_record_frame(record)
                if record.kind is RecordKind.VALID
                else None,
            )
            for radio_id, universal, record in zip(
                jframe.radio_ids, jframe.universal_us, jframe.records
            )
        ]
        built = [
            (i.radio_id, i.local_us, i.universal_us, i.record, i.frame)
            for i in jframe.instances
        ]
        assert built == expected
        kinds.update(record.kind for record in jframe.records)
    assert kinds == set(RecordKind)
