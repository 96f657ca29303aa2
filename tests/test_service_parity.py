"""Crash/resume parity: the service daemon against batch, and itself.

The acceptance property of service mode is **bit identity under
interruption**: a daemon killed mid-trace (SIGKILL-equivalent — no
flushing, no final checkpoint) and restored from its last periodic
checkpoint must finish with exactly the jframes, health ledger, flows
and sealed pass windows of one uninterrupted run.  And an uninterrupted
daemon run must itself be bit-identical to the batch pipeline over the
same records.

The building scenario (compressed duration, full fleet shape) is the
acceptance case; flash_crowd covers a second traffic shape.  Crash
points are randomized (seeded) so each run of the suite exercises
different cut positions in the record stream.
"""

import dataclasses
import random
import struct
import zlib

import pytest

from repro.core.pipeline import JigsawPipeline
from repro.service import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    CheckpointError,
    JigsawDaemon,
    QueueFeed,
    ServiceStalled,
    load_checkpoint,
)
from repro.service.queues import feed_pump_from_records
from repro.service.windows import (
    WindowedInterferencePass,
    WindowedLossPass,
    WindowedSummaryPass,
)
from repro.sim import ScenarioConfig
from repro.sim.registry import scenario_config
from repro.sim.stream import live_feed, stream_scenario

pytestmark = pytest.mark.service

WINDOW_US = 200_000
#: Cadences are sized per scenario: a checkpoint pickles the daemon's
#: full state (which grows with records consumed when materializing),
#: so a fine cadence on a six-figure-record trace turns the suite
#: quadratic.  Both still force several checkpoints per run.
BUILDING_CHECKPOINT_EVERY = 40_000
FLASH_CHECKPOINT_EVERY = 4_000


def make_passes():
    return [
        WindowedSummaryPass(WINDOW_US),
        WindowedInterferencePass(WINDOW_US),
        WindowedLossPass(WINDOW_US),
    ]


def fingerprints(jframes):
    return [
        (
            jf.timestamp_us,
            jf.kind,
            jf.channel,
            jf.frame_len,
            jf.fcs,
            jf.rate_mbps,
            jf.duration_us,
            jf.dispersion_us,
            None if jf.transmitter is None else jf.transmitter.value,
            tuple(
                (i.radio_id, i.local_us, i.universal_us)
                for i in jf.instances
            ),
        )
        for jf in jframes
    ]


def published_map(service_report):
    return {
        w.key: (w.start_us, w.end_us, w.payload)
        for w in service_report.published
    }


def assert_reports_identical(report_a, report_b):
    """Jframes, stats, flows, offsets: the cross-mode parity contract."""
    assert fingerprints(report_a.jframes) == fingerprints(report_b.jframes)
    assert report_a.unification.stats == report_b.unification.stats
    assert report_a.attempt_stats == report_b.attempt_stats
    assert report_a.exchange_stats == report_b.exchange_stats
    assert [str(f.key) for f in report_a.flows] == [
        str(f.key) for f in report_b.flows
    ]
    assert report_a.bootstrap.offsets_us == report_b.bootstrap.offsets_us


def assert_service_identical(svc_a, svc_b):
    """The full crash/resume contract: report + health + sealed windows."""
    assert_reports_identical(svc_a.report, svc_b.report)
    assert dataclasses.asdict(svc_a.report.health) == dataclasses.asdict(
        svc_b.report.health
    )
    pub_a, pub_b = published_map(svc_a), published_map(svc_b)
    assert pub_a == pub_b
    assert pub_a, "parity over zero published windows proves nothing"


def run_daemon(
    config, tmp_path, cadence, stop_after=None, name="svc.ckpt",
    materialize=True,
):
    checkpoint = tmp_path / name
    daemon = JigsawDaemon(
        live_feed(config),
        passes=make_passes(),
        materialize=materialize,
        checkpoint_path=checkpoint,
        checkpoint_every=cadence,
    )
    result = daemon.serve(stop_after_records=stop_after)
    return daemon, result, checkpoint


def crash_and_resume(config, tmp_path, cadence, stop_after):
    """Kill a daemon at ``stop_after`` records, restore, run to the end."""
    crashed, result, checkpoint = run_daemon(
        config, tmp_path, cadence, stop_after=stop_after
    )
    assert result is None, "daemon should have crashed, not finished"
    assert crashed.total_consumed == stop_after
    restored = JigsawDaemon.restore(
        checkpoint, live_feed(config), checkpoint_every=cadence
    )
    assert restored.total_consumed <= stop_after
    assert restored.total_consumed >= stop_after - 2 * cadence
    svc = restored.serve()
    assert svc is not None and svc.resumed, f"resume failed (stop={stop_after})"
    return svc


class TestBuildingScenario:
    """The acceptance case: building shape, compressed duration."""

    @pytest.fixture(scope="class")
    def config(self):
        return ScenarioConfig.building(seed=7, duration_us=2_000_000)

    @pytest.fixture(scope="class")
    def reference(self, config, tmp_path_factory):
        """One uninterrupted daemon run (checkpointing enabled)."""
        daemon, svc, _ = run_daemon(
            config,
            tmp_path_factory.mktemp("service-ref"),
            BUILDING_CHECKPOINT_EVERY,
        )
        assert svc is not None
        assert daemon.total_consumed > 3 * BUILDING_CHECKPOINT_EVERY, (
            "scenario too small to exercise multiple checkpoints"
        )
        return daemon, svc

    def test_daemon_matches_batch_serial(self, config, reference):
        _, svc = reference
        streamed = stream_scenario(config)
        batch = JigsawPipeline().run(
            streamed.traces, clock_groups=streamed.clock_groups()
        )
        assert_reports_identical(svc.report, batch)

    @pytest.mark.parametrize("crash_draw", [0, 1, 2])
    def test_crash_resume_bit_identical(
        self, config, reference, tmp_path, crash_draw
    ):
        daemon, svc_ref = reference
        rng = random.Random()  # fresh entropy: any cut point must work
        stop = rng.randrange(
            BUILDING_CHECKPOINT_EVERY + 1, daemon.total_consumed - 1
        )
        svc = crash_and_resume(
            config, tmp_path, BUILDING_CHECKPOINT_EVERY, stop_after=stop
        )
        try:
            assert_service_identical(svc, svc_ref)
        except AssertionError as err:
            raise AssertionError(
                f"crash/resume divergence at stop={stop}"
            ) from err

    def test_crash_before_first_checkpoint_has_no_recovery_point(
        self, config, tmp_path
    ):
        """A kill before any checkpoint leaves nothing to restore — the
        operator restarts from scratch and still converges."""
        crashed, result, checkpoint = run_daemon(
            config,
            tmp_path,
            BUILDING_CHECKPOINT_EVERY,
            stop_after=BUILDING_CHECKPOINT_EVERY // 2,
        )
        assert result is None
        assert not checkpoint.exists()
        with pytest.raises(FileNotFoundError):
            load_checkpoint(checkpoint)

    def test_checkpoint_survives_reload(self, config, reference, tmp_path):
        """The codec round-trips a mid-run state verbatim."""
        stop = 2 * BUILDING_CHECKPOINT_EVERY + 500
        crashed, result, checkpoint = run_daemon(
            config, tmp_path, BUILDING_CHECKPOINT_EVERY, stop_after=stop
        )
        assert result is None
        state = load_checkpoint(checkpoint)
        # Cadence fires at the first round boundary past the threshold,
        # so the captured count sits just past 2x the cadence.
        assert 2 * BUILDING_CHECKPOINT_EVERY <= state.total_consumed < stop
        assert sum(state.consumed.values()) == state.total_consumed
        assert state.merge.engines and state.drive is not None


class TestFlashCrowdScenario:
    """Second traffic shape: bursty association storm."""

    @pytest.fixture(scope="class")
    def config(self):
        return scenario_config("flash_crowd", "tiny", seed=5)

    @pytest.fixture(scope="class")
    def reference(self, config, tmp_path_factory):
        daemon, svc, _ = run_daemon(
            config,
            tmp_path_factory.mktemp("service-fc"),
            FLASH_CHECKPOINT_EVERY,
        )
        assert svc is not None
        return daemon, svc

    def test_daemon_matches_batch_serial(self, config, reference):
        _, svc = reference
        streamed = stream_scenario(config)
        batch = JigsawPipeline().run(
            streamed.traces, clock_groups=streamed.clock_groups()
        )
        assert_reports_identical(svc.report, batch)

    def test_crash_resume_bit_identical(self, config, reference, tmp_path):
        daemon, svc_ref = reference
        rng = random.Random()
        stop = rng.randrange(
            FLASH_CHECKPOINT_EVERY + 1, daemon.total_consumed - 1
        )
        svc = crash_and_resume(
            config, tmp_path, FLASH_CHECKPOINT_EVERY, stop_after=stop
        )
        assert_service_identical(svc, svc_ref)

    def test_crash_resume_keeps_materialize_false(self, config, tmp_path):
        """A bounded-memory daemon restores as one: the materialize
        choice rides in the checkpointed drive, not in a restore()
        default, so the resumed report is the uninterrupted run's."""
        _, svc_ref, _ = run_daemon(
            config, tmp_path, FLASH_CHECKPOINT_EVERY,
            name="ref.ckpt", materialize=False,
        )
        crashed, result, checkpoint = run_daemon(
            config, tmp_path, FLASH_CHECKPOINT_EVERY,
            stop_after=2 * FLASH_CHECKPOINT_EVERY + 500, materialize=False,
        )
        assert result is None
        restored = JigsawDaemon.restore(
            checkpoint,
            live_feed(config),
            checkpoint_every=FLASH_CHECKPOINT_EVERY,
        )
        svc = restored.serve()
        assert svc is not None and svc.resumed
        assert svc_ref.report.materialized is False
        assert svc.report.materialized is False
        assert svc.report.exchanges == [] and svc.report.attempts == []
        assert_service_identical(svc, svc_ref)

        def flow_state(report):
            return [
                (
                    str(f.key),
                    f.handshake_complete,
                    len(f.loss_events),
                    [obs.exchange is None for obs in f.observations],
                )
                for f in report.flows
            ]

        assert flow_state(svc.report) == flow_state(svc_ref.report)
        assert any(f.observations for f in svc.report.flows)

    def test_double_crash_double_resume(self, config, reference, tmp_path):
        """Two successive kills, two restores — checkpoints chain."""
        daemon, svc_ref = reference
        total = daemon.total_consumed
        first = FLASH_CHECKPOINT_EVERY + total // 3
        second = min(total - 1, first + total // 3)
        crashed, result, checkpoint = run_daemon(
            config, tmp_path, FLASH_CHECKPOINT_EVERY, stop_after=first
        )
        assert result is None
        d2 = JigsawDaemon.restore(
            checkpoint,
            live_feed(config),
            checkpoint_every=FLASH_CHECKPOINT_EVERY,
        )
        assert d2.serve(stop_after_records=second) is None
        d3 = JigsawDaemon.restore(
            checkpoint,
            live_feed(config),
            checkpoint_every=FLASH_CHECKPOINT_EVERY,
        )
        svc = d3.serve()
        assert svc is not None
        assert_service_identical(svc, svc_ref)


class ReplayQueueFeed(QueueFeed):
    """A :class:`QueueFeed` with the bootstrap surface a daemon needs."""

    def __init__(self, streamed, pump, **kwargs):
        super().__init__(
            [t.radio_id for t in streamed.traces], pump, **kwargs
        )
        self.traces = streamed.traces
        self.clock_groups = streamed.clock_groups


@pytest.mark.parametrize("hang_at_pump_call", [1, 40])
def test_stalled_source_leaves_daemon_resumable(hang_at_pump_call):
    """The uplink hangs (before the first record; partway through),
    ``serve()`` surfaces :class:`ServiceStalled`, the uplink comes back,
    and a second ``serve()`` on the same daemon finishes as if nothing
    had happened: the failed read left the merge untouched."""
    streamed = stream_scenario(scenario_config("flash_crowd", "tiny", seed=13))
    records = {t.radio_id: t.records for t in streamed.traces}

    def daemon_over(pump):
        feed = ReplayQueueFeed(streamed, pump, maxlen=16, idle_limit=5)
        return JigsawDaemon(feed, passes=make_passes())

    reference = daemon_over(feed_pump_from_records(records)).serve()

    replay = feed_pump_from_records(records)
    uplink = {"calls": 0, "up": True}

    def flaky_pump(feed, radio_id):
        uplink["calls"] += 1
        if uplink["calls"] == hang_at_pump_call:
            uplink["up"] = False
        if uplink["up"]:
            replay(feed, radio_id)

    daemon = daemon_over(flaky_pump)
    with pytest.raises(ServiceStalled):
        daemon.serve()
    stalled_at = daemon.total_consumed
    assert stalled_at < reference.report.unification.stats.records_in
    assert (stalled_at == 0) == (hang_at_pump_call == 1)

    uplink["up"] = True
    svc = daemon.serve()
    assert svc is not None
    assert_service_identical(svc, reference)


def test_crash_resume_over_a_queue_feed(tmp_path):
    """The push-style feed implements the whole feed protocol: a daemon
    killed over one restores over a *fresh* one (``seek`` tells the
    producer where to pick up) and finishes bit-identically."""
    streamed = stream_scenario(scenario_config("flash_crowd", "tiny", seed=13))
    records = {t.radio_id: t.records for t in streamed.traces}

    def fresh_feed():
        return ReplayQueueFeed(
            streamed, feed_pump_from_records(records), maxlen=16
        )

    reference = JigsawDaemon(fresh_feed(), passes=make_passes()).serve()
    total = reference.report.unification.stats.records_in
    cadence = total // 5
    stop = 2 * total // 3
    checkpoint = tmp_path / "queue.ckpt"

    crashed = JigsawDaemon(
        fresh_feed(),
        passes=make_passes(),
        checkpoint_path=checkpoint,
        checkpoint_every=cadence,
    )
    assert crashed.serve(stop_after_records=stop) is None
    assert crashed.checkpoints_written >= 1

    restored = JigsawDaemon.restore(
        checkpoint, fresh_feed(), checkpoint_every=cadence
    )
    assert 0 < restored.total_consumed < stop
    svc = restored.serve()
    assert svc is not None and svc.resumed
    assert_service_identical(svc, reference)


def test_second_serve_is_refused_and_leaves_the_report_alone():
    """A daemon reports once.  Serving a finished daemon again must
    raise and touch nothing: re-running the completion step would flush
    the drive a second time and rewrite the first report's link-layer
    counters in place."""
    daemon = JigsawDaemon(
        live_feed(scenario_config("flash_crowd", "tiny", seed=3))
    )
    svc = daemon.serve()
    assert svc is not None and svc.report.materialized

    def snapshot():
        report = svc.report
        return (
            dataclasses.asdict(report.attempt_stats),
            dataclasses.asdict(report.exchange_stats),
            len(report.attempts),
            len(report.exchanges),
            daemon.total_consumed,
        )

    before = snapshot()
    assert before[0]["attempts"] > 0 and before[1]["exchanges"] > 0
    with pytest.raises(RuntimeError, match="already returned its report"):
        daemon.serve()
    assert snapshot() == before


@pytest.mark.parametrize(
    "version", [CHECKPOINT_VERSION - 1, CHECKPOINT_VERSION + 1],
    ids=["older", "newer"],
)
def test_other_checkpoint_versions_are_refused(tmp_path, version):
    """A header that is intact in every other respect (magic, length,
    CRC) but written by another format version must be refused by
    version — before ``pickle.loads`` meets classes that have since
    been deleted or reshaped."""
    payload = b"layout of another build"
    path = tmp_path / "other.ckpt"
    path.write_bytes(
        struct.pack(
            "<4sIIQ",
            CHECKPOINT_MAGIC,
            version,
            zlib.crc32(payload) & 0xFFFFFFFF,
            len(payload),
        )
        + payload
    )
    with pytest.raises(CheckpointError, match=f"version {version}"):
        load_checkpoint(path)
