"""Unit tests for reference frames, bootstrap sync, and clock tracking."""

import pytest

from helpers import DST, SRC, data_frame, record_for
from repro.core.sync.bootstrap import _BootstrapShard, bootstrap_synchronization
from repro.core.sync.refs import parse_record_frame, reference_key
from repro.core.sync.skew import ClockTrack
from repro.dot11.frame import make_ack, make_beacon
from repro.dot11.serialize import frame_to_bytes
from repro.jtrace.io import RadioTrace
from repro.jtrace.records import RecordKind, TraceRecord


class TestReferenceKeys:
    def test_data_frame_is_reference(self):
        rec = record_for(data_frame(), radio_id=1, ts=0)
        assert reference_key(rec) is not None

    def test_retry_excluded(self):
        rec = record_for(data_frame(retry=True), radio_id=1, ts=0)
        assert reference_key(rec) is None

    def test_ack_excluded(self):
        rec = record_for(make_ack(SRC), radio_id=1, ts=0)
        assert reference_key(rec) is None

    def test_corrupt_excluded(self):
        rec = record_for(data_frame(), 1, 0, kind=RecordKind.CORRUPT)
        assert reference_key(rec) is None

    def test_beacon_is_reference(self):
        rec = record_for(make_beacon(DST, seq=10), radio_id=1, ts=0)
        assert reference_key(rec) is not None

    def test_same_transmission_same_key(self):
        frame = data_frame(seq=7)
        a = record_for(frame, radio_id=1, ts=100)
        b = record_for(frame, radio_id=2, ts=105)
        assert reference_key(a) == reference_key(b)

    def test_different_frames_different_keys(self):
        a = record_for(data_frame(seq=1), 1, 0)
        b = record_for(data_frame(seq=2), 1, 10)
        assert reference_key(a) != reference_key(b)

    def test_parse_truncated_snap(self):
        frame = data_frame(body=b"z" * 400)
        raw = frame_to_bytes(frame)
        rec = TraceRecord(
            radio_id=1, timestamp_us=0, kind=RecordKind.VALID, channel=1,
            rate_mbps=11.0, rssi_dbm=-50.0, frame_len=len(raw),
            fcs=int.from_bytes(raw[-4:], "little"), snap=raw[:200],
            duration_us=400,
        )
        parsed = parse_record_frame(rec)
        assert parsed is not None
        assert parsed.addr2 == SRC
        assert parsed.seq == frame.seq


def traces_with_offsets(offsets, frames_at):
    """Radios with fixed clock offsets, all hearing the same frames.

    ``frames_at`` maps true time -> frame; radio r's record for a frame at
    true time t carries local timestamp t + offsets[r].
    """
    traces = []
    for radio_id, offset in offsets.items():
        trace = RadioTrace(radio_id=radio_id, channel=1)
        for t, frame in sorted(frames_at.items()):
            trace.append(record_for(frame, radio_id, t + offset))
        traces.append(trace)
    return traces


class TestBootstrap:
    def test_two_radios_relative_offset(self):
        frames = {1000 * i: data_frame(seq=i) for i in range(1, 6)}
        traces = traces_with_offsets({0: 0, 1: 5000}, frames)
        result = bootstrap_synchronization(traces)
        assert result.fully_synchronized
        # universal = local + T; radio 1's clock reads 5000 ahead, so its
        # offset must be 5000 less than radio 0's.
        assert result.offsets_us[1] - result.offsets_us[0] == pytest.approx(-5000)

    def test_transitive_sync_through_intermediate(self):
        # r0 hears frames A; r2 hears frames B; r1 hears both.
        frame_a = data_frame(seq=1)
        frame_b = data_frame(seq=2)
        t0 = RadioTrace(0, 1, [record_for(frame_a, 0, 1000)])
        t1 = RadioTrace(1, 1, [
            record_for(frame_a, 1, 1300),
            record_for(frame_b, 1, 2300),
        ])
        t2 = RadioTrace(2, 1, [record_for(frame_b, 2, 2900)])
        result = bootstrap_synchronization([t0, t1, t2])
        assert result.fully_synchronized
        # r1 reads 300 ahead of r0; r2 reads 900 ahead of r0.
        assert result.offsets_us[1] - result.offsets_us[0] == pytest.approx(-300)
        assert result.offsets_us[2] - result.offsets_us[0] == pytest.approx(-900)

    def test_partition_reported(self):
        # Two islands with no shared frames and no clock bridge.
        frames_a = {1000: data_frame(seq=1)}
        frames_b = {1000: data_frame(seq=2)}
        island_a = traces_with_offsets({0: 0, 1: 50}, frames_a)
        island_b = traces_with_offsets({2: 0, 3: 70}, frames_b)
        result = bootstrap_synchronization(
            island_a + island_b, auto_widen=False
        )
        assert not result.fully_synchronized
        assert set(result.unreachable) == {2, 3}

    def test_clock_group_bridges_partition(self):
        frames_a = {1000: data_frame(seq=1)}
        frames_b = {1000: data_frame(seq=2)}
        island_a = traces_with_offsets({0: 0, 1: 50}, frames_a)
        island_b = traces_with_offsets({2: 50, 3: 70}, frames_b)
        # Radios 1 and 2 share a monitor clock (offset 50 both).
        result = bootstrap_synchronization(
            island_a + island_b, clock_groups=[(1, 2)]
        )
        assert result.fully_synchronized
        assert result.offsets_us[2] == pytest.approx(result.offsets_us[1])

    def test_retries_not_used_as_references(self):
        # The only shared frame is a retransmission — unusable.
        frame = data_frame(seq=1, retry=True)
        t0 = RadioTrace(0, 1, [record_for(frame, 0, 1000)])
        t1 = RadioTrace(1, 1, [record_for(frame, 1, 1100)])
        result = bootstrap_synchronization([t0, t1], auto_widen=False)
        assert result.unreachable  # one of the two cannot be reached

    def test_window_widening_finds_late_references(self):
        # The shared frame appears 3 s in — outside the 1 s window.
        early = data_frame(seq=1)
        late = data_frame(seq=2)
        t0 = RadioTrace(0, 1, [
            record_for(early, 0, 0),
            record_for(late, 0, 3_000_000),
        ])
        t1 = RadioTrace(1, 1, [record_for(late, 1, 3_000_400)])
        narrow = bootstrap_synchronization([t0, t1], auto_widen=False)
        assert not narrow.fully_synchronized
        widened = bootstrap_synchronization([t0, t1], auto_widen=True)
        assert widened.fully_synchronized
        assert widened.window_us > 1_000_000

    def test_shared_truncated_prefix_stays_two_reference_sets(self):
        """Eligibility is classified once per (snap, frame_len), a probe
        without the FCS: two transmissions whose truncated snaps share a
        prefix share that verdict, never a reference set."""
        first = data_frame(seq=3, body=b"z" * 300 + b"1")
        second = data_frame(seq=3, body=b"z" * 300 + b"2")
        a = record_for(first, 0, 1000)
        b = record_for(second, 1, 1005)
        assert (a.snap, a.frame_len) == (b.snap, b.frame_len)
        assert a.frame_len > len(a.snap) and a.fcs != b.fcs
        shard = _BootstrapShard()
        shard.feed_slice([a], 0, 1, 0, 0)
        shard.feed_slice([b], 0, 1, 1, 1)
        assert shard.seen == 2
        assert list(shard.sets.values()) == [{0: 1000}, {1: 1005}]

    def test_empty_traces(self):
        result = bootstrap_synchronization([RadioTrace(0, 1), RadioTrace(1, 1)],
                                           auto_widen=False)
        assert result.unreachable  # nothing to synchronize with


class TestClockTrack:
    def test_identity_without_skew(self):
        track = ClockTrack(radio_id=0, offset_us=100.0)
        assert track.universal_us(50) == pytest.approx(150.0)

    def test_resync_reanchors(self):
        track = ClockTrack(radio_id=0, offset_us=0.0)
        correction = track.resync(1000.0, 1025.0)
        assert correction == pytest.approx(25.0)
        assert track.universal_us(1000.0) == pytest.approx(1025.0)

    def test_skew_learned_from_resyncs(self):
        # True clock runs +100 ppm: local = universal * 1.0001.
        track = ClockTrack(radio_id=0, offset_us=0.0)
        for universal in range(100_000, 1_000_001, 100_000):
            local = universal * 1.0001
            track.resync(local, float(universal))
        # After convergence the predicted universal is close for new times.
        local = 2_000_000 * 1.0001
        assert track.universal_us(local) == pytest.approx(2_000_000, abs=20)
        assert track.skew_ppm == pytest.approx(-100, abs=5)

    def test_short_baseline_skips_skew_update(self):
        track = ClockTrack(radio_id=0, offset_us=0.0)
        track.resync(100.0, 105.0)   # 100 us baseline: too short
        assert track.skew_samples == 0
        assert track.skew_ppm == 0.0

    def test_compensation_can_be_disabled(self):
        track = ClockTrack(
            radio_id=0, offset_us=0.0, skew_ppm=100.0, compensate_skew=False
        )
        assert track.universal_us(1_000_000) == pytest.approx(1_000_000)

    def test_resync_counts(self):
        track = ClockTrack(radio_id=0, offset_us=0.0)
        track.resync(50_000.0, 50_010.0)
        track.resync(100_000.0, 100_020.0)
        assert track.resync_count == 2
