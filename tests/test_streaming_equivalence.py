"""Property tests: sharded/streaming unification ≡ batch unification.

The sharded streaming engine must produce jframe-for-jframe identical
output — timestamps, kinds, instance sets, dispersion, resync counts — to
the batch ``Unifier.unify()`` through every API (generator stream, a
repeated batch merge, a pickled-and-resumed engine or shard
coordinator), on randomized
multi-channel building-style traces.
"""

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sync.bootstrap import BootstrapResult
from repro.core.unify import Unifier, partition_traces
from repro.core.unify.unifier import _MergeEngine
from repro.dot11.address import MacAddress
from repro.dot11.frame import make_ack, make_data
from repro.dot11.serialize import frame_to_bytes
from repro.jtrace.io import RadioTrace
from repro.jtrace.records import RecordKind, TraceRecord
from repro.service.daemon import SLICE


def _record(radio_id, ts, channel, raw=None, kind=RecordKind.VALID,
            duration=100, rate=11.0):
    if kind is RecordKind.PHY_ERROR:
        snap, frame_len, fcs = b"", 0, 0
    else:
        snap, frame_len = raw[:200], len(raw)
        fcs = int.from_bytes(raw[-4:], "little")
    return TraceRecord(
        radio_id=radio_id, timestamp_us=ts, kind=kind, channel=channel,
        rate_mbps=rate, rssi_dbm=-55.0, frame_len=frame_len, fcs=fcs,
        snap=snap, duration_us=duration,
    )


def random_building_traces(seed, n_channels=3, radios_per_channel=3,
                           transmissions_per_channel=150):
    """A randomized multi-channel deployment with skewed clocks.

    Per channel: several radios (with ppm skew and clock offsets) hear a
    shared sequence of transmissions — unique DATA, retried DATA,
    byte-identical ACKs, corrupted copies and PHY-error stubs — with
    per-radio reception jitter large enough to trigger resyncs.
    """
    rng = random.Random(seed)
    traces = []
    offsets = {}
    radio_id = 0
    for ci in range(n_channels):
        channel = 1 + 5 * ci
        src = MacAddress(0x000C0C000000 + ci + 1)
        dst = MacAddress(0x000A0A000000 + ci + 1)
        radios = []
        for _ in range(radios_per_channel):
            skew_ppm = rng.uniform(-60, 60)
            offset = rng.randint(-40_000, 40_000)
            radios.append((radio_id, skew_ppm, offset, []))
            offsets[radio_id] = float(-offset)
            radio_id += 1
        t = 10_000
        for i in range(transmissions_per_channel):
            t += rng.randint(400, 2_500)
            roll = rng.random()
            if roll < 0.6:
                frame = make_data(src, dst, dst, seq=i % 4096,
                                  body=bytes([i % 251, ci]) * 8)
            elif roll < 0.75:
                frame = make_data(src, dst, dst, seq=i % 4096,
                                  body=bytes([i % 251, ci]) * 8, retry=True)
            else:
                # ACKs are byte-identical across transmissions (and across
                # channels) — the content-key stress case.
                frame = make_ack(src)
            raw = frame_to_bytes(frame)
            for rid, skew_ppm, offset, records in radios:
                if rng.random() < 0.25:
                    continue  # this radio missed the frame
                jitter = rng.choice((0, 0, 1, -1, rng.randint(-25, 25)))
                local = int(round((t + jitter) * (1 + skew_ppm * 1e-6))) + offset
                roll2 = rng.random()
                if roll2 < 0.08:
                    damaged = bytearray(raw)
                    damaged[-5] ^= 0xFF
                    records.append(_record(
                        rid, local, channel, bytes(damaged),
                        kind=RecordKind.CORRUPT,
                    ))
                elif roll2 < 0.13:
                    records.append(_record(
                        rid, local, channel, kind=RecordKind.PHY_ERROR,
                    ))
                else:
                    records.append(_record(rid, local, channel, raw))
        for rid, _, _, records in radios:
            records.sort(key=lambda r: r.timestamp_us)
            traces.append(RadioTrace(rid, channel, records))
    return traces, BootstrapResult(offsets_us=offsets)


def jframe_fingerprint(jf):
    return (
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
            (inst.radio_id, inst.local_us, inst.universal_us)
            for inst in jf.instances
        ),
    )


def stats_fingerprint(stats):
    return (
        stats.records_in,
        stats.records_skipped_unsynchronized,
        stats.jframes,
        stats.valid_jframes,
        stats.corrupt_jframes,
        stats.phy_error_jframes,
        stats.instances_unified,
        stats.resyncs,
    )


def tracks_fingerprint(tracks):
    return {
        rid: (t.offset_us, t.anchor_local_us, t.skew_ppm, t.resync_count,
              t.skew_samples)
        for rid, t in tracks.items()
    }


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_all_execution_modes_identical(seed):
    traces, bootstrap = random_building_traces(seed)
    batch = Unifier().unify(traces, bootstrap)
    reference = [jframe_fingerprint(jf) for jf in batch.jframes]
    assert reference, "generator produced an empty scenario"
    assert any(jf.n_instances >= 2 for jf in batch.jframes)
    assert batch.stats.resyncs > 0, "scenario must exercise resynchronization"

    streamed = list(Unifier().iter_unify(traces, bootstrap))
    assert [jframe_fingerprint(jf) for jf in streamed] == reference

    serial = Unifier().unify(traces, bootstrap)
    assert [jframe_fingerprint(jf) for jf in serial.jframes] == reference
    assert stats_fingerprint(serial.stats) == stats_fingerprint(batch.stats)
    assert tracks_fingerprint(serial.tracks) == tracks_fingerprint(batch.tracks)


def test_stream_is_time_ordered_and_lazy():
    traces, bootstrap = random_building_traces(11)
    stream = Unifier().stream_unify(traces, bootstrap)
    seen = []
    last = float("-inf")
    for jf in stream:
        assert jf.timestamp_us >= last
        last = jf.timestamp_us
        seen.append(jf)
    assert stats_fingerprint(stream.stats) == stats_fingerprint(
        Unifier().unify(traces, bootstrap).stats
    )
    assert len(seen) == stream.stats.jframes


@pytest.mark.service
@given(
    seed=st.integers(min_value=0, max_value=50),
    coordinated=st.booleans(),
    calls=st.lists(
        st.tuples(
            st.one_of(
                st.none(),
                st.sampled_from([1, SLICE]),
                st.integers(min_value=1, max_value=150),
            ),
            st.booleans(),
        ),
        min_size=1,
        max_size=10,
    ),
)
@settings(max_examples=40, deadline=None)
def test_engine_resumes_identically_from_any_call_boundary(
    seed, coordinated, calls
):
    """The contract the daemon's checkpoints rest on: however the merge
    is sliced into calls, and wherever between two calls it is pickled
    and restored, the output is the one uninterrupted batch merge's.
    Held for one engine on one channel (``advance`` calls) and for the
    shard coordinator over several (``step`` calls; ``None`` steps a
    daemon slice)."""
    if coordinated:
        traces, bootstrap = random_building_traces(seed)
        merge = Unifier().stream_unify(traces, bootstrap)
        assert len(merge.engines) > 1
        jframes = []
        for max_records, cut in calls:
            jframes.extend(merge.step(max_records or SLICE))
            if cut:
                merge = pickle.loads(pickle.dumps(merge))
        jframes.extend(merge)
        assert merge.finished and merge.step(1) == []
        stats, tracks = merge.stats, merge.tracks
    else:
        traces, bootstrap = random_building_traces(seed, n_channels=1)
        engine = _MergeEngine(Unifier(), traces, bootstrap)
        jframes = []
        for max_records, cut in calls:
            jframes.extend(engine.advance(max_records))
            if cut:
                engine = pickle.loads(pickle.dumps(engine))
        jframes.extend(engine.advance())
        assert engine.finished and engine.advance(1) == []
        stats, tracks = engine.stats, engine.tracks
    batch = Unifier().unify(traces, bootstrap)
    assert [jframe_fingerprint(jf) for jf in jframes] == [
        jframe_fingerprint(jf) for jf in batch.jframes
    ]
    assert stats_fingerprint(stats) == stats_fingerprint(batch.stats)
    assert tracks_fingerprint(tracks) == tracks_fingerprint(batch.tracks)


@pytest.mark.parametrize("window", [60, 200])
def test_stream_ordered_with_tiny_search_window(window):
    """Search windows smaller than the attachment windows must not break
    the streaming emission order (the watermark covers both)."""
    traces, bootstrap = random_building_traces(31)
    unifier = Unifier(search_window_us=window)
    last = float("-inf")
    count = 0
    for jf in unifier.iter_unify(traces, bootstrap):
        assert jf.timestamp_us >= last
        last = jf.timestamp_us
        count += 1
    assert count == len(unifier.unify(traces, bootstrap).jframes)


def test_unsynchronized_radio_skipped_in_sharded():
    traces, bootstrap = random_building_traces(21)
    dropped = traces[0].radio_id
    del bootstrap.offsets_us[dropped]
    batch = Unifier().unify(traces, bootstrap)
    sharded = Unifier().unify(traces, bootstrap)
    assert batch.stats.records_skipped_unsynchronized == len(traces[0])
    assert stats_fingerprint(sharded.stats) == stats_fingerprint(batch.stats)
    assert dropped not in sharded.tracks


class TestPartition:
    def test_channels_split(self):
        traces, _ = random_building_traces(3)
        shards = partition_traces(traces)
        assert len(shards) == 3
        for shard in shards:
            assert len({t.channel for t in shard}) == 1
        # Deterministic order by channel.
        assert [s[0].channel for s in shards] == sorted(
            s[0].channel for s in shards
        )

    def test_mixed_channel_trace_merges_shards(self):
        frame = frame_to_bytes(make_ack(MacAddress(0x1)))
        hopper = RadioTrace(0, 1, [
            _record(0, 1000, 1, frame),
            _record(0, 2000, 6, frame),
        ])
        parked = RadioTrace(1, 6, [_record(1, 1500, 6, frame)])
        other = RadioTrace(2, 11, [_record(2, 1500, 11, frame)])
        shards = partition_traces([hopper, parked, other])
        assert len(shards) == 2
        assert {t.radio_id for t in shards[0]} == {0, 1}
        assert {t.radio_id for t in shards[1]} == {2}

    def test_empty_trace_keeps_its_channel(self):
        empty = RadioTrace(5, 11, [])
        shards = partition_traces([empty])
        assert shards == [[empty]]


def test_small_simulation_equivalence():
    """End-to-end: the simulator's multi-channel fleet, all modes agree."""
    from repro.sim import ScenarioConfig, run_scenario
    from repro.core.sync.bootstrap import bootstrap_synchronization

    artifacts = run_scenario(ScenarioConfig.small(seed=97))
    bootstrap = bootstrap_synchronization(
        artifacts.radio_traces, clock_groups=artifacts.clock_groups()
    )
    batch = Unifier().unify(artifacts.radio_traces, bootstrap)
    sharded = Unifier().unify(artifacts.radio_traces, bootstrap)
    assert [jframe_fingerprint(jf) for jf in sharded.jframes] == [
        jframe_fingerprint(jf) for jf in batch.jframes
    ]
    assert stats_fingerprint(sharded.stats) == stats_fingerprint(batch.stats)
