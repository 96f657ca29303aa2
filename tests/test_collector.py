"""What pausing the cycle collector during a run relies on.

``JigsawPipeline.run`` pauses automatic cyclic collection for its whole
body.  That is safe only because a batch run makes no cyclic garbage,
so nothing a collection could free piles up while it is off: every
registry family, from memory (materialized or not) and from files,
clean or damaged, leaves ``gc.collect()`` nothing to find while its
report is still alive.  The run must also hand the caller back the
collector state it found, on every exit.

``JigsawDaemon.serve`` pauses the same way and runs one young
collection at each checkpoint boundary, so a daemon makes no cyclic
garbage either, and what a pass drops cyclic waits at most one
boundary; a cycle dropped after a boundary moved it to the oldest
generation waits for the next full collection, which CPython's own
rule schedules at a boundary, so a long ``serve()`` keeps its garbage
bounded.
"""

import gc

import pytest

from repro.core.passes import PipelinePass
from repro.core.pipeline import JigsawPipeline
from repro.jtrace.io import open_trace_streams, write_traces
from repro.service import CheckpointError, JigsawDaemon
from repro.service.windows import (
    WindowedInterferencePass,
    WindowedLossPass,
    WindowedSummaryPass,
)
from repro.sim import (
    REGISTRY,
    FaultConfig,
    run_scenario,
    scenario_config,
    write_faulty_traces,
)
from repro.sim.stream import live_feed

SEED = 17

#: ``test_reconstruction_determinism``'s damaged ``flash_crowd`` case.
FILE_DAMAGE = FaultConfig(corrupt_rate=0.02, truncate_radios=1)


@pytest.fixture(scope="module")
def simulate():
    """``simulate(family, **overrides)``: the family's tiny run at
    ``SEED``, simulated once per module."""
    campuses = {}

    def get(family, **overrides):
        key = (family, tuple(sorted(overrides.items())))
        if key not in campuses:
            config = scenario_config(family, scale="tiny", seed=SEED)
            if overrides:
                config = config.with_overrides(**overrides)
            campuses[key] = (config, run_scenario(config))
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
            campus.radio_traces,
            clock_groups=campus.clock_groups(),
            materialize=materialize,
        )
    ) == 0


@pytest.mark.parametrize("family", sorted(REGISTRY.names()))
def test_files_run_makes_no_cyclic_garbage(family, tmp_path, simulate):
    _, campus = simulate(family)
    write_traces(campus.radio_traces, tmp_path)
    assert unreachable_after(
        lambda: JigsawPipeline().run(
            open_trace_streams(tmp_path), clock_groups=campus.clock_groups()
        )
    ) == 0


def test_damaged_files_run_makes_no_cyclic_garbage(tmp_path, simulate):
    config, campus = simulate("flash_crowd", faults=FILE_DAMAGE)
    plan = write_faulty_traces(campus.radio_traces, tmp_path, config)
    assert plan.corrupted_records and plan.truncated

    def run():
        report = JigsawPipeline().run(
            open_trace_streams(tmp_path, policy="skip"),
            clock_groups=campus.clock_groups(),
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
        campus.radio_traces,
        clock_groups=campus.clock_groups(),
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
            campus.radio_traces,
            clock_groups=campus.clock_groups(),
            passes=[RaisingPass()],
        )
    assert gc.isenabled()


def test_strict_truncated_read_restores_collection(
    collector_on, tmp_path, simulate
):
    config, campus = simulate(
        "flash_crowd", faults=FaultConfig(truncate_radios=1)
    )
    plan = write_faulty_traces(campus.radio_traces, tmp_path, config)
    assert plan.truncated
    with pytest.raises(ValueError, match="truncated"):
        JigsawPipeline().run(
            open_trace_streams(tmp_path), clock_groups=campus.clock_groups()
        )
    assert gc.isenabled()


# --- the daemon ---------------------------------------------------------

#: Checkpoint cadence: eight boundaries in the tiny flash crowd.
EVERY = 1_500
BOUNDARIES = 8


class ReplayFeed:
    """The daemon's feed protocol over a finished campus's traces (a
    streamed simulation leaves cyclic garbage of its own)."""

    def __init__(self, campus, raise_at=None):
        self.traces = campus.radio_traces
        self._clock_groups = campus.clock_groups()
        self._records = {t.radio_id: t.records for t in campus.radio_traces}
        self._cursor = dict.fromkeys(self._records, 0)
        self._raise_at = raise_at
        self._served = 0

    def clock_groups(self):
        return self._clock_groups

    def seek(self, consumed):
        self._cursor.update(consumed)

    def next_record(self, radio_id):
        self._served += 1
        if self._served == self._raise_at:
            raise Boom
        records, index = self._records[radio_id], self._cursor[radio_id]
        if index == len(records):
            return None
        self._cursor[radio_id] = index + 1
        return records[index]


def windowed_passes():
    return [
        cls(100_000)
        for cls in (
            WindowedSummaryPass,
            WindowedInterferencePass,
            WindowedLossPass,
        )
    ]


@pytest.fixture
def flash(simulate):
    _, campus = simulate("flash_crowd")
    return campus


class Unpicklable(PipelinePass):
    """A pass no checkpoint can hold."""

    name = "unpicklable"

    def __init__(self):
        self.generator = (n for n in ())


@pytest.mark.service
def test_serve_pauses_collection_and_restores_it(collector_on, flash):
    svc = JigsawDaemon(ReplayFeed(flash), passes=[CollectorProbe()]).serve()
    assert svc.report.passes["collector_probe"] == [False]
    assert gc.isenabled()


@pytest.mark.service
def test_serve_leaves_a_disabled_collector_disabled(collector_on, flash):
    gc.disable()
    svc = JigsawDaemon(ReplayFeed(flash), passes=[CollectorProbe()]).serve()
    assert svc.report.passes["collector_probe"] == [False]
    assert not gc.isenabled()


@pytest.mark.service
def test_killed_serve_restores_collection(collector_on, flash, tmp_path):
    daemon = JigsawDaemon(
        ReplayFeed(flash),
        checkpoint_path=tmp_path / "svc.ckpt",
        checkpoint_every=EVERY,
    )
    assert daemon.serve(stop_after_records=2 * EVERY) is None
    assert daemon.checkpoints_written >= 1
    assert gc.isenabled()


@pytest.mark.service
def test_raising_source_restores_collection(collector_on, flash):
    daemon = JigsawDaemon(ReplayFeed(flash, raise_at=2 * EVERY))
    with pytest.raises(Boom):
        daemon.serve()
    assert gc.isenabled()


@pytest.mark.service
def test_failed_checkpoint_restores_collection(
    collector_on, flash, tmp_path
):
    daemon = JigsawDaemon(
        ReplayFeed(flash),
        passes=[Unpicklable()],
        checkpoint_path=tmp_path / "svc.ckpt",
        checkpoint_every=EVERY,
    )
    with pytest.raises(CheckpointError, match="checkpoint 1 was not written"):
        daemon.serve()
    assert gc.isenabled()


@pytest.mark.service
@pytest.mark.parametrize(
    "every", [EVERY, 10**9], ids=["boundaries", "no-boundary"]
)
def test_daemon_makes_no_cyclic_garbage(every, flash, tmp_path):
    """With checkpoints, and with a cadence past the end of the trace,
    so that no boundary collection runs to hide what the daemon left.
    The daemon itself is dropped: each cursor is bound once to the
    feed's ``next_record``, not to the daemon, so a dropped daemon is in
    no cycle either."""

    def serve():
        svc = JigsawDaemon(
            ReplayFeed(flash),
            passes=windowed_passes(),
            checkpoint_path=tmp_path / "svc.ckpt",
            checkpoint_every=every,
        ).serve()
        boundaries = BOUNDARIES if every == EVERY else 0
        assert svc.checkpoints_written == boundaries
        return svc

    assert unreachable_after(serve) == 0


class Cycle:
    """One reference cycle; ``alive`` counts the ones not yet freed."""

    alive = 0

    def __init__(self):
        self.me = self
        Cycle.alive += 1

    def __del__(self):
        Cycle.alive -= 1


class CyclePass(PipelinePass):
    """Drops one reference cycle per jframe; as a ``gc.callbacks`` hook,
    notes how many jframes it had seen when each collection began."""

    name = "cycles"

    def __init__(self):
        self.jframes = 0
        self.collections = []

    def on_jframe(self, jframe):
        self.jframes += 1
        Cycle()

    def note(self, phase, info):
        if phase == "start":
            self.collections.append((info["generation"], self.jframes))

    def finish(self, context):
        return list(self.collections), self.jframes, Cycle.alive


@pytest.mark.service
def test_cycles_wait_at_most_one_boundary(collector_on, flash, tmp_path):
    """Automatic collection stays off, so the only collections are the
    young ones at the boundaries; each frees every cycle dropped before
    it, and ``serve()`` returns holding only those dropped since the
    last one."""
    gc.collect()
    probe = CyclePass()
    daemon = JigsawDaemon(
        ReplayFeed(flash),
        passes=[probe],
        checkpoint_path=tmp_path / "svc.ckpt",
        checkpoint_every=EVERY,
    )
    gc.callbacks.append(probe.note)
    try:
        svc = daemon.serve()
    finally:
        gc.callbacks.remove(probe.note)
    collections, jframes, alive = svc.report.passes["cycles"]
    assert [generation for generation, _ in collections] == [1] * BOUNDARIES
    assert svc.checkpoints_written == BOUNDARIES
    seen = [0] + [fed for _, fed in collections]
    assert alive == jframes - seen[-1]
    assert alive <= max(b - a for a, b in zip(seen, seen[1:]))
    gc.collect()
    assert Cycle.alive == 0


class LateCyclePass(CyclePass):
    """Holds each cycle for ``hold`` jframes before dropping it, longer
    than a boundary apart, so a young collection has already moved it
    to the oldest generation and only a full collection frees it."""

    name = "late_cycles"

    def __init__(self, hold):
        super().__init__()
        self.hold = hold
        self.held = []

    def on_jframe(self, jframe):
        self.jframes += 1
        self.held.append(Cycle())
        if len(self.held) > self.hold:
            self.held.pop(0)


@pytest.mark.service
def test_live_serve_keeps_its_garbage_bounded(collector_on):
    """A live feed over dozens of boundaries, with what the caller held
    before ``serve()`` frozen, as a long-running service would have it:
    full collections run at boundaries, and ``serve()`` returns holding
    only the cycles it holds on purpose and those dropped since the
    last full collection, a small part of all it dropped."""
    hold = 100
    probe = LateCyclePass(hold)
    gc.collect()
    gc.freeze()
    gc.callbacks.append(probe.note)
    try:
        svc = JigsawDaemon(
            live_feed(scenario_config("flash_crowd", "tiny", seed=13)),
            passes=[probe],
            checkpoint_every=200,
        ).serve()
        collections, jframes, alive = svc.report.passes["late_cycles"]
    finally:
        gc.callbacks.remove(probe.note)
        gc.unfreeze()
    young = [fed for generation, fed in collections if generation == 1]
    full = [fed for generation, fed in collections if generation == 2]
    assert len(young) >= 30
    assert full and set(full) <= set(young)
    assert alive <= hold + jframes - full[-1]
    assert alive - hold < (jframes - hold) // 4
    probe.held.clear()
    gc.collect()
    assert Cycle.alive == 0
