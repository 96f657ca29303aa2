"""Service-mode checkpoint behaviour the differential harness cannot draw.

``tests/test_modes.py`` holds every daemon run — killed and restored at
drawn record counts, stalled and recovered over a ``QueueFeed`` — to the
batch pipeline on every corpus.  What stays here is service behaviour
that is not a comparison with batch: a kill before the first checkpoint
leaves nothing to restore, the codec round-trips a mid-run state, a
source that fails in the bootstrap read leaves the daemon resumable, a
bounded-memory daemon restores as one, a finished daemon refuses to
serve again, and checkpoints of another format version are refused.
"""

import dataclasses
import os
import struct
import zlib
from pathlib import Path

import pytest

from helpers import assert_reports_identical
from repro.service import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    CheckpointError,
    JigsawDaemon,
    load_checkpoint,
)
from repro.service.daemon import SLICE
from repro.service.windows import (
    WindowedInterferencePass,
    WindowedLossPass,
    WindowedSummaryPass,
)
from repro.sim.registry import scenario_config
from repro.sim.stream import live_feed

pytestmark = pytest.mark.service

WINDOW_US = 200_000
FLASH_CHECKPOINT_EVERY = 4_000


def make_passes():
    return [
        WindowedSummaryPass(WINDOW_US),
        WindowedInterferencePass(WINDOW_US),
        WindowedLossPass(WINDOW_US),
    ]


def published_map(service_report):
    return {
        w.key: (w.start_us, w.end_us, w.payload)
        for w in service_report.published
    }


def assert_service_identical(svc_a, svc_b):
    """The full crash/resume contract: report + health + sealed windows."""
    assert_reports_identical(svc_a.report, svc_b.report)
    assert dataclasses.asdict(svc_a.report.health) == dataclasses.asdict(
        svc_b.report.health
    )
    pub_a, pub_b = published_map(svc_a), published_map(svc_b)
    assert pub_a == pub_b
    assert pub_a, "parity over zero published windows proves nothing"


class ProtocolFeed:
    """The feed protocol and nothing else: the roster ``traces``,
    ``clock_groups()``, ``seek()`` and ``next_record()``, the one way a
    record reaches the daemon."""

    def __init__(self, config):
        live = live_feed(config)
        self.traces = live.traces
        self.clock_groups = live.clock_groups
        self.seek = live.seek
        self.next_record = live.next_record


class SourceDown(RuntimeError):
    pass


class FailingOnceFeed:
    """Delegates to a feed, and raises :class:`SourceDown` instead of
    serving its ``at``-th record request."""

    def __init__(self, feed, at):
        self._feed = feed
        self._at = at
        self._requests = 0

    def __getattr__(self, name):
        return getattr(self._feed, name)

    def next_record(self, radio_id):
        self._requests += 1
        if self._requests == self._at:
            raise SourceDown
        return self._feed.next_record(radio_id)


def run_daemon(
    config, tmp_path, cadence, stop_after=None, name="svc.ckpt",
    materialize=True, feed=live_feed,
):
    checkpoint = tmp_path / name
    daemon = JigsawDaemon(
        feed(config),
        passes=make_passes(),
        materialize=materialize,
        checkpoint_path=checkpoint,
        checkpoint_every=cadence,
    )
    result = daemon.serve(stop_after_records=stop_after)
    return daemon, result, checkpoint


class TestFlashCrowdScenario:
    """The tiny flash crowd: a bursty association storm."""

    @pytest.fixture(scope="class")
    def config(self):
        return scenario_config("flash_crowd", "tiny", seed=5)

    def test_crash_before_first_checkpoint_has_no_recovery_point(
        self, config, tmp_path
    ):
        """A kill before any checkpoint leaves nothing to restore — the
        operator restarts from scratch and still converges."""
        crashed, result, checkpoint = run_daemon(
            config,
            tmp_path,
            FLASH_CHECKPOINT_EVERY,
            stop_after=FLASH_CHECKPOINT_EVERY // 2,
        )
        assert result is None
        assert not checkpoint.exists()
        with pytest.raises(FileNotFoundError):
            load_checkpoint(checkpoint)

    def test_checkpoint_survives_reload(self, config, tmp_path):
        """The codec round-trips a mid-run state verbatim."""
        stop = 2 * FLASH_CHECKPOINT_EVERY + 500
        crashed, result, checkpoint = run_daemon(
            config, tmp_path, FLASH_CHECKPOINT_EVERY, stop_after=stop
        )
        assert result is None
        state = load_checkpoint(checkpoint)
        # Cadence fires at the first round boundary past the threshold,
        # so the captured count sits just past 2x the cadence.
        assert 2 * FLASH_CHECKPOINT_EVERY <= state.total_consumed < stop
        assert sum(state.consumed.values()) == state.total_consumed
        assert state.merge.engines and state.drive is not None

    def test_a_feed_of_four_members_kills_restores_and_finishes(
        self, config, tmp_path
    ):
        """What the daemon has read is the merge's ledger, so a feed
        that only hands out records and seeks is enough to checkpoint,
        restore and finish identically."""
        _, svc_ref, _ = run_daemon(
            config, tmp_path, FLASH_CHECKPOINT_EVERY, name="ref.ckpt"
        )
        crashed, result, checkpoint = run_daemon(
            config, tmp_path, FLASH_CHECKPOINT_EVERY,
            stop_after=2 * FLASH_CHECKPOINT_EVERY + 500, feed=ProtocolFeed,
        )
        assert result is None and checkpoint.exists()
        restored = JigsawDaemon.restore(
            checkpoint,
            ProtocolFeed(config),
            checkpoint_every=FLASH_CHECKPOINT_EVERY,
        )
        svc = restored.serve()
        assert svc is not None and svc.resumed
        assert_service_identical(svc, svc_ref)

    def test_a_kill_lands_at_the_end_of_its_step(
        self, config, tmp_path, monkeypatch
    ):
        """``serve(stop_after_records=k)`` returns at the end of the step
        that read the k-th record, before that step's boundary: within
        one step of ``k``, with the last boundary below ``k`` on disk —
        so a kill at a boundary's own count lands before it."""
        boundaries, replace = [], os.replace

        def noting_replace(src, dst):
            replace(src, dst)
            if Path(dst).name == "ref.ckpt":
                boundaries.append(load_checkpoint(dst).total_consumed)

        monkeypatch.setattr(os, "replace", noting_replace)
        run_daemon(config, tmp_path, FLASH_CHECKPOINT_EVERY, name="ref.ckpt")
        monkeypatch.undo()
        assert len(boundaries) >= 3
        for k in (
            boundaries[0] + 1,
            (boundaries[1] + boundaries[2]) // 2,
            boundaries[2],
        ):
            daemon, result, checkpoint = run_daemon(
                config, tmp_path, FLASH_CHECKPOINT_EVERY, stop_after=k,
                name=f"kill-{k}.ckpt",
            )
            assert result is None
            assert k <= daemon.total_consumed < k + SLICE
            last = max(b for b in boundaries if b < k)
            assert load_checkpoint(checkpoint).total_consumed == last
            assert daemon.checkpoints_written == boundaries.index(last) + 1

    def test_a_source_error_in_the_bootstrap_read_resumes(
        self, config, tmp_path
    ):
        """The bootstrap reads through the feed: a source that fails
        mid-window leaves what was read with the daemon, and a second
        ``serve()`` reads on to the uninterrupted run's report."""
        _, svc_ref, _ = run_daemon(
            config, tmp_path, FLASH_CHECKPOINT_EVERY, name="ref.ckpt"
        )
        daemon = JigsawDaemon(
            FailingOnceFeed(live_feed(config), at=50),
            passes=make_passes(),
            checkpoint_path=tmp_path / "svc.ckpt",
            checkpoint_every=FLASH_CHECKPOINT_EVERY,
        )
        with pytest.raises(SourceDown):
            daemon.serve()
        assert daemon.total_consumed == 49
        assert daemon.checkpoints_written == 0
        svc = daemon.serve()
        assert svc is not None and not svc.resumed
        assert svc.checkpoints_written == svc_ref.checkpoints_written
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
    "version",
    [*range(6, CHECKPOINT_VERSION), CHECKPOINT_VERSION + 1],
    ids=lambda version: {
        CHECKPOINT_VERSION - 1: "older", CHECKPOINT_VERSION + 1: "newer"
    }.get(version, f"v{version}"),
)
def test_other_checkpoint_versions_are_refused(tmp_path, version):
    """A header that is intact in every other respect (magic, length,
    CRC) but written by another format version must be refused by
    version — before ``pickle.loads`` meets classes that have since
    been deleted or reshaped.  Every version retired since 6 is one
    case ("older" is the one just retired), and so is one newer."""
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
