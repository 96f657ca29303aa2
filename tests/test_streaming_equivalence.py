"""Property tests: the shard coordinator and the partition it merges.

However the merge is sliced into calls, and wherever it is pickled and
restored, the output is the one uninterrupted batch merge's; the stream
is time-ordered and lazy; and ``partition_traces`` hands the merge
channel shards on legacy input and (building, channel) leaves on
stamped campus input.  Randomized multi-channel building-style traces
and a tiny four-building campus are the inputs.
"""

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import jframe_fingerprint
from repro.core.sync.bootstrap import BootstrapResult, bootstrap_synchronization
from repro.core.unify import Unifier, partition_traces
from repro.core.unify.unifier import _MergeEngine
from repro.dot11.address import MacAddress
from repro.dot11.frame import make_ack, make_data
from repro.dot11.serialize import frame_to_bytes
from repro.jtrace.io import RadioTrace
from repro.jtrace.records import RecordKind, TraceRecord
from repro.service.daemon import SLICE
from repro.sim import run_scenario
from repro.sim.registry import scenario_config


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
    shard coordinator over several (``step`` calls); ``None`` is a
    daemon slice."""
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
            jframes.extend(engine.advance(max_records or SLICE))
            if cut:
                engine = pickle.loads(pickle.dumps(engine))
        while not engine.finished:
            jframes.extend(engine.advance(SLICE))
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
    for jf in unifier.stream_unify(traces, bootstrap):
        assert jf.timestamp_us >= last
        last = jf.timestamp_us
        count += 1
    assert count == len(unifier.unify(traces, bootstrap).jframes)


N_BUILDINGS = 4


def stripped(traces):
    """The same records with the locality stamps removed (legacy input)."""
    return [RadioTrace(t.radio_id, t.channel, t.records) for t in traces]


@pytest.fixture(scope="module")
def campus():
    return run_scenario(
        scenario_config("campus", "tiny", seed=17, n_buildings=N_BUILDINGS)
    )


@pytest.fixture(scope="module")
def bootstrap(campus):
    result = bootstrap_synchronization(
        campus.radio_traces, clock_groups=campus.clock_groups()
    )
    # Stamped fleets synchronize each building on its own: every
    # building is its own expected reference island, nobody gets
    # quarantined off a "primary" building's timeline.
    assert result.quarantined == {}
    assert sorted(len(i) for i in result.islands) == sorted(
        len([t for t in campus.radio_traces if t.building_id == b])
        for b in range(N_BUILDINGS)
    )
    return result


@pytest.fixture(scope="module")
def reference(campus, bootstrap):
    """The stamped merge: (building, channel) leaves."""
    return Unifier().unify(campus.radio_traces, bootstrap)


@pytest.fixture(scope="module")
def stripped_reference(campus, bootstrap):
    """The legacy merge: locality stamps removed, channel shards only.

    Not bit-identical to ``reference`` — and that is a feature, pinned by
    ``test_hierarchy_confines_headless_attachment``: mixed channel shards
    let a headless corrupt record attach to a timestamp-adjacent group
    from a *different building*, which (building, channel) leaves
    preclude.  Valid-frame assembly is partition-independent either way.
    """
    return Unifier().unify(stripped(campus.radio_traces), bootstrap)


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

    # --- stamped campus input: (building, channel) leaves -------------------

    def test_campus_plan_is_building_major(self, campus):
        shards = partition_traces(campus.radio_traces)
        localities = [{t.building_id for t in shard} for shard in shards]
        # Every leaf sits inside one building; buildings come in order.
        assert all(len(loc) == 1 for loc in localities)
        order = [loc.pop() for loc in localities]
        assert order == sorted(order)
        assert set(order) == set(range(N_BUILDINGS))
        # One leaf per (building, channel) pair actually present.
        pairs = {
            (t.building_id, t.channel) for t in campus.radio_traces if len(t)
        }
        assert len(shards) >= len(pairs)
        assert sorted(t.radio_id for shard in shards for t in shard) == sorted(
            t.radio_id for t in campus.radio_traces
        )

    def test_legacy_plan_falls_back_to_channels(self, campus):
        shards = partition_traces(stripped(campus.radio_traces))
        assert len(shards) == len({t.channel for t in campus.radio_traces})
        # Channel shards span buildings: no locality confinement left.
        by_radio = {t.radio_id: t.building_id for t in campus.radio_traces}
        assert all(
            len({by_radio[t.radio_id] for t in shard}) == N_BUILDINGS
            for shard in shards
        )

    def test_mixed_stamps_fall_back_to_channels(self, campus):
        """partition_traces is all-or-nothing on locality: one unstamped
        trace must demote the whole plan (never a half-hierarchy)."""
        traces = list(campus.radio_traces)
        traces[0] = RadioTrace(
            traces[0].radio_id, traces[0].channel, traces[0].records
        )
        assert [
            [t.radio_id for t in shard] for shard in partition_traces(traces)
        ] == [
            [t.radio_id for t in shard]
            for shard in partition_traces(stripped(campus.radio_traces))
        ]

    def test_hierarchy_confines_headless_attachment(
        self, reference, stripped_reference
    ):
        """The one sanctioned divergence between the stamped and legacy
        partitions: a corrupt record whose header is unparseable attaches
        to the timestamp-nearest open group *in its shard*.  Mixed
        channel shards can pick a group from another building; locality
        leaves cannot, so the hierarchy emits at least as many jframes
        (the strays front their own groups).  Re-partitioning only moves
        records between groups — it never drops or duplicates one — so
        the total instance count is conserved."""
        assert len(reference.jframes) >= len(stripped_reference.jframes)

        def instances(result):
            return sum(len(jf.instances) for jf in result.jframes)

        assert instances(reference) == instances(stripped_reference)
