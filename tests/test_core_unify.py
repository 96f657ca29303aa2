"""Tests for frame unification: synthetic cases plus simulator integration."""

import copy
import pickle

import pytest

from helpers import SRC, data_frame, record_for
from repro.core.pipeline import JigsawPipeline
from repro.core.sync.bootstrap import BootstrapResult, bootstrap_synchronization
from repro.core.unify.jframe import Instance, JFrameKind
from repro.core.unify.unifier import Unifier
from repro.dot11.address import MacAddress
from repro.dot11.serialize import frame_to_bytes
from repro.jtrace.io import RadioTrace
from repro.jtrace.records import RecordKind

SRC2 = MacAddress.parse("00:0c:0c:00:00:02")


def perfect_bootstrap(radio_ids):
    return BootstrapResult(offsets_us={r: 0.0 for r in radio_ids})


class TestBasicUnification:
    def test_duplicates_merge_into_one_jframe(self):
        frame = data_frame()
        traces = [
            RadioTrace(r, 1, [record_for(frame, r, 1000 + r, txid=1)])
            for r in range(4)
        ]
        result = Unifier().unify(traces, perfect_bootstrap(range(4)))
        assert len(result.jframes) == 1
        jf = result.jframes[0]
        assert jf.n_instances == 4
        assert jf.kind is JFrameKind.VALID
        assert jf.frame is not None and jf.frame.seq == 1
        assert jf.truth_txid() == 1

    def test_distinct_frames_stay_separate(self):
        a, b = data_frame(seq=1), data_frame(seq=2)
        traces = [
            RadioTrace(0, 1, [record_for(a, 0, 1000, txid=1),
                              record_for(b, 0, 1500, txid=2)]),
            RadioTrace(1, 1, [record_for(a, 1, 1002, txid=1),
                              record_for(b, 1, 1503, txid=2)]),
        ]
        result = Unifier().unify(traces, perfect_bootstrap(range(2)))
        assert len(result.jframes) == 2
        assert {jf.truth_txid() for jf in result.jframes} == {1, 2}

    def test_simultaneous_distinct_content_not_merged(self):
        """Distinct frames transmitted at the same instant must not merge —
        "it is still crucial to compare frame contents" (Section 4.2)."""
        a = data_frame(seq=5, src=SRC)
        b = data_frame(seq=9, src=SRC2)
        traces = [
            RadioTrace(0, 1, [record_for(a, 0, 1000, txid=1)]),
            RadioTrace(1, 1, [record_for(b, 1, 1000, txid=2)]),
        ]
        result = Unifier().unify(traces, perfect_bootstrap(range(2)))
        assert len(result.jframes) == 2

    def test_median_timestamp(self):
        frame = data_frame()
        traces = [
            RadioTrace(0, 1, [record_for(frame, 0, 1000)]),
            RadioTrace(1, 1, [record_for(frame, 1, 1004)]),
            RadioTrace(2, 1, [record_for(frame, 2, 1030)]),
        ]
        result = Unifier().unify(traces, perfect_bootstrap(range(3)))
        assert result.jframes[0].timestamp_us == 1004
        assert result.jframes[0].dispersion_us == pytest.approx(30.0)

    def test_bootstrap_offsets_applied(self):
        frame = data_frame()
        # Radio 1's clock reads 5000 ahead; bootstrap knows it.
        traces = [
            RadioTrace(0, 1, [record_for(frame, 0, 1000, txid=1)]),
            RadioTrace(1, 1, [record_for(frame, 1, 6003, txid=1)]),
        ]
        bootstrap = BootstrapResult(offsets_us={0: 0.0, 1: -5000.0})
        result = Unifier().unify(traces, bootstrap)
        assert len(result.jframes) == 1
        assert result.jframes[0].dispersion_us < 10

    def test_same_radio_never_twice_in_jframe(self):
        # Two identical retries heard by one radio stay two jframes.
        frame = data_frame(retry=True)
        trace = RadioTrace(0, 1, [
            record_for(frame, 0, 1000, txid=1),
            record_for(frame, 0, 2000, txid=2),
        ])
        result = Unifier().unify([trace], perfect_bootstrap([0]))
        assert len(result.jframes) == 2

    def test_two_traces_of_one_radio_are_refused(self):
        """A radio id names one trace: a second trace under it would
        displace the first in the merge and fold both into one clock."""
        frame = data_frame()
        traces = [
            RadioTrace(0, 1, [record_for(frame, 0, 1000)]),
            RadioTrace(1, 1, [record_for(frame, 1, 1003)]),
            RadioTrace(0, 6, [record_for(frame, 0, 2000)]),
        ]
        with pytest.raises(ValueError, match="radio id 0"):
            Unifier().stream_unify(traces, perfect_bootstrap([0, 1]))
        with pytest.raises(ValueError, match="radio id 0"):
            JigsawPipeline().run(traces)

    def test_unsynchronized_radio_skipped(self):
        frame = data_frame()
        traces = [
            RadioTrace(0, 1, [record_for(frame, 0, 1000)]),
            RadioTrace(1, 1, [record_for(frame, 1, 1003)]),
        ]
        bootstrap = BootstrapResult(offsets_us={0: 0.0}, unreachable=[1])
        result = Unifier().unify(traces, bootstrap)
        assert result.stats.records_skipped_unsynchronized == 1
        assert result.jframes[0].n_instances == 1

    def test_output_sorted_by_timestamp(self):
        frames = [data_frame(seq=i) for i in range(1, 20)]
        records = [
            record_for(f, 0, 1000 * i, txid=i)
            for i, f in enumerate(frames, start=1)
        ]
        result = Unifier().unify(
            [RadioTrace(0, 1, records)], perfect_bootstrap([0])
        )
        stamps = [jf.timestamp_us for jf in result.jframes]
        assert stamps == sorted(stamps)


class TestCorruptAndErrorHandling:
    def test_corrupt_attaches_by_transmitter(self):
        frame = data_frame(body=b"q" * 64)
        raw = bytearray(frame_to_bytes(frame))
        raw[-6] ^= 0xFF  # tail damage: header (and addr2) survive
        traces = [
            RadioTrace(0, 1, [record_for(frame, 0, 1000, txid=1)]),
            RadioTrace(1, 1, [record_for(
                frame, 1, 1005, kind=RecordKind.CORRUPT,
                corrupt_bytes=bytes(raw), txid=1,
            )]),
        ]
        result = Unifier().unify(traces, perfect_bootstrap(range(2)))
        assert len(result.jframes) == 1
        jf = result.jframes[0]
        assert jf.kind is JFrameKind.VALID
        assert jf.n_instances == 2

    def test_phy_error_attaches_by_time(self):
        frame = data_frame()
        traces = [
            RadioTrace(0, 1, [record_for(frame, 0, 1000, txid=1)]),
            RadioTrace(1, 1, [record_for(
                frame, 1, 1008, kind=RecordKind.PHY_ERROR, txid=1,
            )]),
        ]
        result = Unifier().unify(traces, perfect_bootstrap(range(2)))
        assert len(result.jframes) == 1
        assert result.jframes[0].kind is JFrameKind.VALID

    def test_valid_adopts_earlier_corrupt_group(self):
        frame = data_frame(body=b"w" * 64)
        raw = bytearray(frame_to_bytes(frame))
        raw[-6] ^= 0xFF
        traces = [
            RadioTrace(0, 1, [record_for(
                frame, 0, 1000, kind=RecordKind.CORRUPT,
                corrupt_bytes=bytes(raw), txid=1,
            )]),
            RadioTrace(1, 1, [record_for(frame, 1, 1006, txid=1)]),
        ]
        result = Unifier().unify(traces, perfect_bootstrap(range(2)))
        assert len(result.jframes) == 1
        assert result.jframes[0].kind is JFrameKind.VALID

    def test_lone_phy_error_becomes_error_jframe(self):
        frame = data_frame()
        trace = RadioTrace(0, 1, [
            record_for(frame, 0, 1000, kind=RecordKind.PHY_ERROR),
        ])
        result = Unifier().unify([trace], perfect_bootstrap([0]))
        assert result.jframes[0].kind is JFrameKind.PHY_ERROR

    def test_cross_channel_never_grouped(self):
        frame = data_frame()
        traces = [
            RadioTrace(0, 1, [record_for(frame, 0, 1000, channel=1)]),
            RadioTrace(1, 6, [record_for(frame, 1, 1000, channel=6)]),
        ]
        result = Unifier().unify(traces, perfect_bootstrap(range(2)))
        # Same content on different channels: physically distinct events.
        assert len(result.jframes) == 2


class TestResynchronization:
    def test_skewed_clock_tracked_across_trace(self):
        """A radio with +80 ppm skew stays unified with a perfect radio
        thanks to continual resynchronization."""
        frames = [data_frame(seq=i % 4096, body=bytes([i % 251]) * 8)
                  for i in range(200)]
        good = RadioTrace(0, 1, [
            record_for(f, 0, 5_000 * (i + 1), txid=i + 1)
            for i, f in enumerate(frames)
        ])
        skewed_records = []
        for i, f in enumerate(frames):
            true_ts = 5_000 * (i + 1)
            local = int(round(true_ts * (1 + 80e-6)))
            skewed_records.append(record_for(f, 1, local, txid=i + 1))
        skewed = RadioTrace(1, 1, skewed_records)
        result = Unifier().unify(
            [good, skewed], perfect_bootstrap(range(2))
        )
        assert len(result.jframes) == 200
        assert all(jf.n_instances == 2 for jf in result.jframes)
        # Dispersion stays bounded: the tracker absorbs the skew.
        late = result.jframes[150:]
        assert max(jf.dispersion_us for jf in late) < 20
        # Universal time is the fleet's consensus clock, not wall clock
        # (the paper: Jigsaw's universal clock "may diverge over time with
        # respect to a true time standard").  Only the *relative* skew
        # between the two radios is observable, and it must be ~80 ppm.
        relative = result.tracks[1].skew_ppm - result.tracks[0].skew_ppm
        assert relative == pytest.approx(-80, abs=20)

    def test_without_resync_skew_breaks_unification(self):
        """Ablation: huge resync threshold (never resync) plus a small
        window makes the skewed radio's frames split off — the failure mode
        Section 4.2 motivates resynchronization with."""
        frames = [data_frame(seq=i % 4096, body=bytes([i % 251]) * 8)
                  for i in range(200)]
        good = RadioTrace(0, 1, [
            record_for(f, 0, 5_000 * (i + 1), txid=i + 1)
            for i, f in enumerate(frames)
        ])
        skewed = RadioTrace(1, 1, [
            record_for(f, 1, int(round(5_000 * (i + 1) * (1 + 80e-6))),
                       txid=i + 1)
            for i, f in enumerate(frames)
        ])
        result = Unifier(
            search_window_us=60,
            resync_threshold_us=1e12,
            compensate_skew=False,
        ).unify([good, skewed], perfect_bootstrap(range(2)))
        split = sum(1 for jf in result.jframes if jf.n_instances == 1)
        assert split > 90  # most frames no longer unify

    def test_resync_stat_counted(self):
        frames = [data_frame(seq=i, body=bytes([i]) * 4) for i in range(50)]
        a = RadioTrace(0, 1, [
            record_for(f, 0, 20_000 * (i + 1), txid=i) for i, f in enumerate(frames)
        ])
        b = RadioTrace(1, 1, [
            record_for(f, 1, 20_000 * (i + 1) + 15, txid=i)
            for i, f in enumerate(frames)
        ])
        result = Unifier(resync_threshold_us=10).unify(
            [a, b], perfect_bootstrap(range(2))
        )
        assert result.stats.resyncs > 0


def test_instances_are_built_once_on_first_read():
    """A jframe holds columns; ``.instances`` is a view built on first
    read and kept.  Counting, listing radios, pickling and copying read
    the columns and leave it unbuilt."""
    frame = data_frame()
    trace_a = RadioTrace(1, 1, [record_for(frame, 1, 1000)])
    trace_b = RadioTrace(2, 1, [record_for(frame, 2, 1001)])
    result = Unifier().unify([trace_a, trace_b], perfect_bootstrap([1, 2]))
    (jframe,) = result.jframes
    assert jframe.n_instances == 2 and jframe.radios == [1, 2]
    loaded = pickle.loads(pickle.dumps(jframe))
    copied = copy.copy(jframe)
    assert "instances" not in vars(jframe)

    built = jframe.instances
    assert jframe.instances is built
    a, b = built
    assert type(a) is Instance
    assert (a.radio_id, a.local_us, a.record) == (1, 1000, trace_a.records[0])
    assert (b.radio_id, b.local_us, b.record) == (2, 1001, trace_b.records[0])
    assert a.frame is b.frame is jframe.frame is not None
    # A copy builds its own view from the same columns.
    assert copied.instances == built and copied.instances is not built
    assert [i.frame for i in loaded.instances] == [loaded.frame] * 2


@pytest.fixture(scope="module")
def unified_small():
    from repro.sim import ScenarioConfig, run_scenario

    artifacts = run_scenario(ScenarioConfig.small(seed=42))
    bootstrap = bootstrap_synchronization(
        artifacts.radio_traces, clock_groups=artifacts.clock_groups()
    )
    result = Unifier().unify(artifacts.radio_traces, bootstrap)
    return artifacts, bootstrap, result


class TestSimulatorIntegration:
    def test_bootstrap_covers_fleet(self, unified_small):
        _, bootstrap, _ = unified_small
        assert bootstrap.fully_synchronized

    def test_unification_against_oracle(self, unified_small):
        """Each multi-radio-observed transmission should unify into exactly
        one jframe: compare against the simulator's txid oracle."""
        artifacts, _, result = unified_small
        from collections import defaultdict

        by_txid = defaultdict(list)
        for jf in result.jframes:
            if jf.kind is JFrameKind.VALID and jf.truth_txid():
                by_txid[jf.truth_txid()].append(jf)
        split = sum(1 for frames in by_txid.values() if len(frames) > 1)
        assert split / max(1, len(by_txid)) < 0.02

    def test_dispersion_mostly_tight(self, unified_small):
        """Figure 4's qualitative shape: the large majority of jframes see
        worst-case inter-radio offsets within tens of microseconds."""
        _, _, result = unified_small
        dispersions = sorted(result.dispersions_us())
        assert dispersions
        p90 = dispersions[int(0.9 * len(dispersions)) - 1]
        assert p90 < 40.0

    def test_events_per_jframe_above_one(self, unified_small):
        _, _, result = unified_small
        assert result.stats.events_per_jframe > 1.5

    def test_no_records_lost(self, unified_small):
        artifacts, _, result = unified_small
        total_records = sum(len(t) for t in artifacts.radio_traces)
        assert (
            result.stats.instances_unified
            + result.stats.records_skipped_unsynchronized
            == total_records
        )
