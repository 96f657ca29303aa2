"""One differential harness: every execution mode over one corpus.

A corpus is a tiny scenario from building / flash_crowd / campus crossed
with a :class:`~repro.sim.scenario.FaultConfig` preset — off, file
damage (corruption + truncation), record faults (blackout + clock
jump) — simulated, fault-injected and written to trace files once per
module.  Its records reach the pipeline four ways:

1. batch from memory: ``JigsawPipeline.run`` over the traces;
2. batch from files: over ``open_trace_streams(policy="skip")``;
3. a checkpointing daemon over a replay feed, killed at drawn record
   counts and each time restored from its last checkpoint (started over
   when it died before writing one) over a fresh replay or queue feed;
4. a daemon over a :class:`~repro.service.QueueFeed` whose pump stalls
   at a drawn call — ``serve()`` raises ``ServiceStalled`` — and then
   recovers, the same daemon served again.

All four agree on everything ``assert_reports_identical`` names, and
each daemon publishes exactly the windows batch reports as its passes'
``tail``.  The modes that read the same records (all but the files
mode) share the whole ``report.health``; the files mode's ingest ledger
is clean exactly when the files are undamaged, and counts as decoded
every record the memory corpus holds.

The batch modes draw nothing, so they run once per corpus; the daemon
modes run per example.  The building acceptance case — the paper's
fleet shape, compressed to two seconds — is one more corpus, run
through the same four modes at one drawn kill point.
"""

from dataclasses import dataclass
from pathlib import Path
from typing import List

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import assert_reports_identical
from repro.core.pipeline import JigsawPipeline, JigsawReport
from repro.core.unify import partition_traces
from repro.jtrace.io import RadioTrace, open_trace_streams
from repro.service import JigsawDaemon, QueueFeed, ServiceStalled
from repro.service.queues import feed_pump_from_records
from repro.service.windows import (
    WindowedInterferencePass,
    WindowedLossPass,
    WindowedSummaryPass,
)
from repro.sim import (
    FaultConfig,
    ScenarioConfig,
    inject_record_faults,
    run_scenario,
    write_faulty_traces,
)
from repro.sim.registry import scenario_config

pytestmark = pytest.mark.service

#: Fixes the drawn kill points.  ``simulate`` still refuses a corpus
#: whose damage decodes into a record outside its radio's true span
#: (gap-free windowed passes would seal every window up to it), but
#: ``SidecarBound`` rejects such headers: with the file-damage preset the
#: skip policy, scalar and batch, decodes none at seeds 0-11 for the
#: tiny building, the flash crowd and a four-building campus.
SEED = 6
#: Four buildings of three channels: the campus corpora are the
#: twelve-leaf (building, channel) partition, in the daemon too.
CAMPUS_BUILDINGS = 4
WINDOW_US = 100_000
WINDOWED = (WindowedSummaryPass, WindowedInterferencePass, WindowedLossPass)
QUEUE_DEPTH = 16
IDLE_LIMIT = 5

PRESETS = {
    "off": FaultConfig(),
    "file_damage": FaultConfig(corrupt_rate=0.02, truncate_radios=1),
    "record_faults": FaultConfig(blackout_radios=1, clock_jump_radios=1),
}

CORPORA = [
    pytest.param(
        (family, preset),
        id=f"{family}-{preset}",
        marks=() if preset == "off" else pytest.mark.faults,
    )
    for family in ("building", "flash_crowd", "campus")
    for preset in PRESETS
]


def windowed_passes():
    return [cls(WINDOW_US) for cls in WINDOWED]


def batch(traces, clock_groups) -> JigsawReport:
    return JigsawPipeline().run(
        traces, clock_groups=clock_groups, passes=windowed_passes()
    )


@dataclass
class Corpus:
    """One simulated, fault-injected capture and its two batch reports."""

    #: What the files hold, as in-memory traces in radio-id order.
    traces: List[RadioTrace]
    clock_groups: List[List[int]]
    #: Whether any fault was injected, and whether the files carry
    #: byte damage.
    faulted: bool
    damaged: bool
    memory: JigsawReport
    files: JigsawReport

    @property
    def fed(self) -> List[RadioTrace]:
        """The traces a daemon reads through its feed: the synchronized."""
        offsets = self.memory.bootstrap.offsets_us
        return [t for t in self.traces if t.radio_id in offsets]


def simulate(config: ScenarioConfig, directory: Path) -> Corpus:
    """Simulate once, write the (damaged) files, run both batch modes."""
    artifacts = run_scenario(config)
    traces, groups = artifacts.radio_traces, artifacts.clock_groups()
    plan = write_faulty_traces(traces, directory, config)
    assert plan.any == config.faults.any
    damaged = bool(plan.corrupted_records or plan.truncated)
    if damaged:
        # What survives the damage, read by the scalar reference decoder
        # (the files mode reads with the batch one), stamped as the
        # simulator stamped it.
        stamps = {t.radio_id: t.building_id for t in traces}
        held = [
            RadioTrace(s.radio_id, s.channel, list(s), stamps[s.radio_id])
            for s in open_trace_streams(
                directory, policy="skip", vectorized=False
            )
        ]
        span = {t.radio_id: (t.first_timestamp_us, t.last_timestamp_us)
                for t in traces}
        assert all(
            span[t.radio_id][0] <= r.timestamp_us <= span[t.radio_id][1]
            for t in held
            for r in t.records
        ), "the damage decoded into a fabricated record"
    else:
        held, _ = inject_record_faults(traces, config)
    held.sort(key=lambda t: t.radio_id)
    return Corpus(
        held,
        groups,
        plan.any,
        damaged,
        memory=batch(held, groups),
        files=batch(open_trace_streams(directory, policy="skip"), groups),
    )


# --------------------------------------------------------------------------
# Feeds
# --------------------------------------------------------------------------


class ReplayFeed:
    """The daemon's feed protocol over a corpus's in-memory traces."""

    def __init__(self, corpus: Corpus) -> None:
        self.traces = corpus.traces
        self._clock_groups = corpus.clock_groups
        self._records = {t.radio_id: t.records for t in corpus.traces}
        self._cursor = dict.fromkeys(self._records, 0)

    def clock_groups(self):
        return [list(g) for g in self._clock_groups]

    def seek(self, consumed):
        self._cursor.update(consumed)

    def next_record(self, radio_id):
        records, index = self._records[radio_id], self._cursor[radio_id]
        if index == len(records):
            return None
        self._cursor[radio_id] = index + 1
        return records[index]


class ReplayQueueFeed(QueueFeed):
    """A :class:`QueueFeed` over a corpus, its roster record-less, so
    every record the daemon sees comes through the queues; the default
    pump replays the corpus from the feed's consumed counts."""

    def __init__(self, corpus: Corpus, pump=None) -> None:
        super().__init__(
            [
                RadioTrace(t.radio_id, t.channel, building_id=t.building_id)
                for t in corpus.traces
            ],
            pump or replay_pump(corpus),
            maxlen=QUEUE_DEPTH,
            idle_limit=IDLE_LIMIT,
        )
        self._clock_groups = corpus.clock_groups

    def clock_groups(self):
        return [list(g) for g in self._clock_groups]


def replay_pump(corpus: Corpus):
    return feed_pump_from_records(
        {t.radio_id: t.records for t in corpus.traces}
    )


# --------------------------------------------------------------------------
# The daemon modes
# --------------------------------------------------------------------------


def killed_and_restored(corpus, checkpoint, kills, cadence, over_queue):
    """Mode 3: kill at each count in ``kills``, restore, then finish."""
    checkpoint.unlink(missing_ok=True)

    def fresh(feed):
        return JigsawDaemon(
            feed,
            passes=windowed_passes(),
            checkpoint_path=checkpoint,
            checkpoint_every=cadence,
        )

    daemon, resumed = fresh(ReplayFeed(corpus)), False
    for kill in kills:
        assert daemon.serve(stop_after_records=kill) is None
        feed = ReplayQueueFeed(corpus) if over_queue else ReplayFeed(corpus)
        resumed = checkpoint.exists()
        if resumed:
            daemon = JigsawDaemon.restore(
                checkpoint, feed, checkpoint_every=cadence
            )
            assert daemon.total_consumed < kill
        else:
            # Killed before its first checkpoint: nothing to restore,
            # the operator starts over.
            daemon = fresh(feed)
    svc = daemon.serve()
    assert svc is not None and svc.resumed == resumed
    return svc


def stalled_and_recovered(corpus, stall_at):
    """Mode 4: the pump hangs from call ``stall_at`` until ``serve()``
    gives up; the uplink returns and the same daemon serves on."""
    replay = replay_pump(corpus)
    uplink = {"calls": 0, "up": True}

    def flaky_pump(feed, radio_id):
        uplink["calls"] += 1
        if uplink["calls"] == stall_at:
            uplink["up"] = False
        if uplink["up"]:
            replay(feed, radio_id)

    daemon = JigsawDaemon(
        ReplayQueueFeed(corpus, flaky_pump), passes=windowed_passes()
    )
    with pytest.raises(ServiceStalled):
        daemon.serve()
    assert (daemon.total_consumed == 0) == (stall_at == 1)
    uplink["up"] = True
    svc = daemon.serve()
    assert svc is not None
    return svc


def run_every_mode(corpus, checkpoint, data, max_kills):
    """Draw a schedule and hold both daemon modes to batch.

    Kills count back from the last record the daemon reads and the
    cadence from a quarter of them, so the simplest draw kills at the
    last record after the most checkpoints; the pump always runs at
    least ``longest // QUEUE_DEPTH`` times, so every drawn stall lands.
    """
    fed = corpus.fed
    total = sum(len(t) for t in fed)
    longest = max(len(t) for t in fed)
    cadence = data.draw(
        st.integers(max(1, total // 4), max(1, total // 2)), label="cadence"
    )
    kills = sorted(
        total - back
        for back in data.draw(
            st.lists(
                st.integers(0, total - 1), min_size=1, max_size=max_kills
            ),
            label="kills (records before the end)",
        )
    )
    over_queue = data.draw(st.booleans(), label="restore over a QueueFeed")
    stall_at = data.draw(
        st.integers(1, max(1, longest // QUEUE_DEPTH)), label="stall at call"
    )

    killed = killed_and_restored(
        corpus, checkpoint, kills, cadence, over_queue
    )
    assert_matches_batch(killed, corpus.memory)
    stalled = stalled_and_recovered(corpus, stall_at)
    assert_matches_batch(stalled, corpus.memory)


def assert_matches_batch(svc, memory):
    """A daemon read the records batch from memory read: the same
    report and health ledger, and every window batch sealed at finish
    published along the way."""
    assert_reports_identical(svc.report, memory)
    assert svc.report.health == memory.health
    for cls in WINDOWED:
        assert svc.published_for(cls.name) == memory.passes[cls.name]["tail"]


def check_batch_modes(corpus):
    """What holds of a corpus before any daemon runs."""
    memory, files = corpus.memory, corpus.files
    assert memory.passes["windowed_summary"]["tail"], "no window to compare"
    assert_reports_identical(files, memory)
    assert files.passes == memory.passes
    ingest = files.health.ingest
    assert ingest.clean is not corpus.damaged
    assert ingest.records_decoded == memory.unification.stats.records_in
    assert not memory.health.ingest.records_decoded
    if not corpus.faulted:
        # Clean inputs: every tolerant path certifies nothing was lost.
        assert not files.health.degraded
        assert "degraded:" not in files.summary()


# --------------------------------------------------------------------------
# The harness
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("modes")


@pytest.fixture(scope="module", params=CORPORA)
def corpus(request, workdir):
    family, preset = request.param
    campus = {"n_buildings": CAMPUS_BUILDINGS} if family == "campus" else {}
    config = scenario_config(
        family, "tiny", seed=SEED, faults=PRESETS[preset], **campus
    )
    corpus = simulate(config, workdir / f"{family}-{preset}")
    check_batch_modes(corpus)
    if campus:
        assert len(partition_traces(corpus.traces)) == 3 * CAMPUS_BUILDINGS
    return corpus


@given(data=st.data())
@settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_every_mode_agrees(corpus, workdir, data):
    run_every_mode(corpus, workdir / "svc.ckpt", data, max_kills=2)


@pytest.fixture(scope="module")
def building(workdir):
    corpus = simulate(
        ScenarioConfig.building(seed=7, duration_us=2_000_000),
        workdir / "building",
    )
    check_batch_modes(corpus)
    assert corpus.memory.unification.stats.jframes > 1_000
    return corpus


@given(data=st.data())
@settings(
    max_examples=1,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_building_acceptance(building, workdir, data):
    """The paper-shaped fleet through the same four modes, once."""
    run_every_mode(building, workdir / "svc.ckpt", data, max_kills=1)
