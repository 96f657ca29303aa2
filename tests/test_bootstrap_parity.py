"""Bootstrap suite: incremental single-read collection, pinned absolutely.

``bootstrap_synchronization`` feeds one collector only the records each
auto-widen round adds and decodes file-backed traces only as far as the
window reaches.  An auto-widened run must therefore equal a from-scratch
collection at its final window — including the partition path and the
strict ``SyncPartitionError`` failure mode the paper hits on pod
reduction (Section 6) — and the covering family must not depend on the
order reference sets were collected.
"""

import random

import pytest

from helpers import data_frame, record_for
from repro.core.sync.bootstrap import (
    SyncPartitionError,
    _select_covering_family,
    bootstrap_synchronization,
)
from repro.jtrace.io import RadioTrace
from repro.jtrace.records import batch_from_records
from repro.sim.campus import run_campus
from repro.sim.registry import scenario_config


def result_fingerprint(result):
    return (
        result.offsets_us,
        result.unreachable,
        result.reference_sets_used,
        result.reference_frames_seen,
        result.window_us,
    )


def assert_parity(traces, clock_groups=(), **kwargs):
    """A (possibly auto-widened) run equals from-scratch collection at
    the window it ended on — the definition of incremental feeding."""
    widened = bootstrap_synchronization(
        traces, clock_groups=clock_groups, **kwargs
    )
    scratch = bootstrap_synchronization(
        traces,
        clock_groups=clock_groups,
        **{**kwargs, "window_us": widened.window_us, "auto_widen": False},
    )
    assert result_fingerprint(widened) == result_fingerprint(scratch)
    assert widened.quarantined == scratch.quarantined
    assert widened.islands == scratch.islands
    return widened


def random_multichannel_traces(seed, n_radios=8, n_frames=40, channels=(1, 6, 11)):
    """Radios spread over channels, hearing per-channel frame subsets.

    Every channel's radios share frames (dense overlap); a designated
    bridge monitor contributes one radio per adjacent channel pair via
    clock groups, mirroring the deployment's shared capture clocks.
    """
    rng = random.Random(seed)
    traces = []
    for radio_id in range(n_radios):
        channel = channels[radio_id % len(channels)]
        offset = rng.randint(-40_000, 40_000)
        records = []
        for i in range(n_frames):
            # Channel-distinct content: seq namespaced by channel.
            frame = data_frame(seq=(channel * 512 + i) % 4096, body=bytes([channel]) * 8)
            true_time = 1_000 + i * 17_000 + (channel * 3)
            if rng.random() < 0.75:  # not every radio hears every frame
                records.append(
                    record_for(frame, radio_id, true_time + offset, channel)
                )
        records.sort(key=lambda r: r.timestamp_us)
        traces.append(RadioTrace(radio_id, channel, records))
    clock_groups = [
        [r for r in range(n_radios) if r % len(channels) in (0, 1)][:2],
        [r for r in range(n_radios) if r % len(channels) in (1, 2)][:2],
    ]
    clock_groups = [g for g in clock_groups if len(g) >= 2]
    return traces, clock_groups


class TestFromScratchParity:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_multichannel_property(self, seed):
        traces, clock_groups = random_multichannel_traces(seed)
        result = assert_parity(traces, clock_groups=clock_groups)
        assert result.offsets_us  # something synchronized
        # A window shorter than the 17 ms frame spacing forces widening.
        widened = assert_parity(
            traces, clock_groups=clock_groups, window_us=10_000
        )
        assert widened.widen_rounds > 0

    def test_building_scenario(self):
        from repro.sim import ScenarioConfig, run_scenario

        artifacts = run_scenario(ScenarioConfig.small(seed=11))
        assert_parity(
            artifacts.radio_traces, clock_groups=artifacts.clock_groups()
        )

    def test_mislabeled_record_attributed_to_owning_trace(self):
        """Reference sets key members by the *trace's* radio — the same
        attribution the merge engine uses — so a record whose radio_id
        field is mislabeled neither crashes the BFS nor smuggles a
        foreign radio into the offset graph."""
        frame = data_frame(seq=6)
        t0 = RadioTrace(0, 1, [record_for(frame, 9999, 1_000)])
        t1 = RadioTrace(1, 1, [record_for(frame, 1, 1_050)])
        result = assert_parity([t0, t1])
        assert set(result.offsets_us) == {0, 1}

    def test_empty_and_single(self):
        assert_parity([])
        assert_parity([RadioTrace(0, 1, [])])
        frame = data_frame(seq=3)
        assert_parity([RadioTrace(0, 1, [record_for(frame, 0, 100)])])

    def test_auto_widen_parity(self):
        """Late references force widening; incremental feed must match
        a from-scratch collection at the widened window."""
        early = data_frame(seq=1)
        late = data_frame(seq=2)
        later = data_frame(seq=3)
        t0 = RadioTrace(0, 1, [
            record_for(early, 0, 0),
            record_for(late, 0, 3_000_000),
            record_for(later, 0, 6_500_000),
        ])
        t1 = RadioTrace(1, 1, [record_for(late, 1, 3_000_400)])
        t2 = RadioTrace(2, 1, [record_for(later, 2, 6_500_900)])
        result = assert_parity([t0, t1, t2])
        assert result.fully_synchronized
        assert result.window_us > 1_000_000

    def test_auto_widen_arrival_order_parity(self):
        """A widening round can sight a key at an earlier (trace, record)
        coordinate than the round that created it; the incremental shard
        must settle on the same globally-earliest arrival order — and
        therefore the same covering-family tie-break — as a from-scratch
        collection."""
        frame_a = data_frame(seq=1)
        frame_x = data_frame(seq=2)
        frame_y = data_frame(seq=3)
        # Round 1 (1 s window): trace0 contributes only A; trace1 creates
        # the X and Y sets (singletons).  Round 2 (2 s): trace0's X and Y
        # sightings arrive as duplicates from an *earlier* trace position.
        # X and Y then tie at size 2 — the tie-break must pick the same
        # set both ways.
        t0 = RadioTrace(0, 1, [
            record_for(frame_a, 0, 100),
            record_for(frame_x, 0, 2_000_000),
            record_for(frame_y, 0, 2_000_050),
        ])
        t1 = RadioTrace(1, 1, [
            record_for(frame_y, 1, 500),
            record_for(frame_x, 1, 700),
        ])
        result = assert_parity([t0, t1])
        assert result.fully_synchronized
        assert result.window_us > 1_000_000

    def test_auto_widen_partition_parity(self):
        """A partition that widening cannot heal must report identically."""
        island_a = [
            RadioTrace(0, 1, [record_for(data_frame(seq=1), 0, 1_000)]),
            RadioTrace(1, 1, [record_for(data_frame(seq=1), 1, 1_050)]),
        ]
        island_b = [
            RadioTrace(2, 6, [record_for(data_frame(seq=2), 2, 1_000, 6)]),
            RadioTrace(3, 6, [record_for(data_frame(seq=2), 3, 1_070, 6)]),
        ]
        result = assert_parity(island_a + island_b)
        assert set(result.unreachable) == {2, 3}

    def test_clock_group_bridge_parity(self):
        """Cross-channel bridging happens only in the global BFS phase."""
        island_a = [
            RadioTrace(0, 1, [record_for(data_frame(seq=1), 0, 1_000)]),
            RadioTrace(1, 1, [record_for(data_frame(seq=1), 1, 1_050)]),
        ]
        island_b = [
            RadioTrace(2, 6, [record_for(data_frame(seq=2), 2, 1_050, 6)]),
            RadioTrace(3, 6, [record_for(data_frame(seq=2), 3, 1_070, 6)]),
        ]
        result = assert_parity(island_a + island_b, clock_groups=[(1, 2)])
        assert result.fully_synchronized
        assert result.offsets_us[2] == pytest.approx(result.offsets_us[1])


class TestWidenDelta:
    def test_widened_run_matches_from_scratch_collection(self):
        """End to end with a window small enough to force widening: the
        run that fed only each round's delta must land on exactly what
        one collection at the final window produces."""
        campus = run_campus(
            scenario_config("campus", "tiny", seed=17, n_buildings=4)
        )
        widened = bootstrap_synchronization(
            campus.traces, clock_groups=campus.clock_groups, window_us=20_000
        )
        assert widened.widen_rounds > 0, (
            "window did not force widening; shrink window_us"
        )
        scratch = bootstrap_synchronization(
            campus.traces,
            clock_groups=campus.clock_groups,
            window_us=widened.window_us,
            auto_widen=False,
        )
        for field in (
            "offsets_us",
            "reference_sets_used",
            "reference_frames_seen",
            "quarantined",
            "islands",
        ):
            assert getattr(widened, field) == getattr(scratch, field), field


class TestStrictPartition:
    def _islands(self):
        return [
            RadioTrace(0, 1, [record_for(data_frame(seq=1), 0, 1_000)]),
            RadioTrace(1, 1, [record_for(data_frame(seq=1), 1, 1_050)]),
            RadioTrace(2, 6, [record_for(data_frame(seq=2), 2, 1_000, 6)]),
            RadioTrace(3, 6, [record_for(data_frame(seq=2), 3, 1_070, 6)]),
        ]

    def test_serial_strict_raises(self):
        with pytest.raises(SyncPartitionError) as err:
            bootstrap_synchronization(self._islands(), strict=True)
        assert set(err.value.unreachable) == {2, 3}

    def test_non_strict_reports(self):
        result = bootstrap_synchronization(self._islands())
        assert set(result.unreachable) == {2, 3}


class TestCoveringFamilyDeterminism:
    def test_tie_break_ignores_collection_order(self):
        """Equal-size reference sets must resolve by arrival order, not
        by the order the dict happened to be built in."""
        key_a = (60, 1, b"a" * 24)
        key_b = (60, 2, b"b" * 24)
        members_a = {0: 100, 1: 160}
        members_b = {0: 105, 1: 140}
        order = {key_a: (0, 3), key_b: (0, 7)}  # a arrived first
        forward = _select_covering_family(
            {key_a: members_a, key_b: members_b}, [0, 1], order
        )
        backward = _select_covering_family(
            {key_b: members_b, key_a: members_a}, [0, 1], order
        )
        assert forward == backward == [members_a]


class TestSingleReadIngest:
    def test_streaming_traces_prefix_only_for_bootstrap(self, tmp_path):
        """Bootstrap over streaming traces must decode only the window
        prefix (plus one record of lookahead per trace)."""
        from repro.jtrace.io import open_trace_streams, write_traces

        frames = {i: data_frame(seq=i) for i in range(1, 30)}
        traces = []
        for radio_id, offset in ((0, 0), (1, 2_000)):
            records = [
                record_for(frame, radio_id, 200_000 * i + offset)
                for i, frame in sorted(frames.items())
            ]
            traces.append(RadioTrace(radio_id, 1, records))
        write_traces(traces, tmp_path)
        # The record-at-a-time laziness this asserts is a scalar-decoder
        # property; the batch engine's granularity is one decoded batch
        # (covered by test_batched_ingest_decodes_by_batch below).
        streams = open_trace_streams(tmp_path, vectorized=False)
        reference = bootstrap_synchronization(traces)
        result = bootstrap_synchronization(streams)
        assert result_fingerprint(result) == result_fingerprint(reference)
        for stream in streams:
            # 1 s window over 200 ms spacing: ~6 records + 1 lookahead,
            # far fewer than the 29 in the file.
            assert len(stream.replay_buffer) < 10
        # Unification later drains the remainder of the same read.
        assert len(streams[0].records) == 29

    def test_batched_ingest_decodes_by_batch(self, tmp_path):
        """The batch engine's laziness granularity is one chunk-sized
        batch: a bootstrap prefix pull must not drain a multi-chunk file
        into the replay buffer."""
        from repro.jtrace.io import open_trace_streams, write_traces

        frame = data_frame(seq=1)
        records = [
            record_for(frame, 0, 10_000 * i) for i in range(1, 4001)
        ]
        write_traces([RadioTrace(0, 1, records)], tmp_path)
        # Chunk small enough that the file spans many batches.
        stream = open_trace_streams(tmp_path, chunk_bytes=4096)[0]
        bootstrap_synchronization([stream], window_us=5_000_000)  # ~500 records
        assert len(stream.replay_buffer) < 1000
        assert len(stream.records) == 4000

    def test_streaming_pipeline_matches_memory_pipeline(self, tmp_path):
        from repro.core.pipeline import JigsawPipeline
        from repro.jtrace.io import open_trace_streams, write_traces
        from repro.sim import ScenarioConfig, run_scenario

        artifacts = run_scenario(ScenarioConfig.small(seed=13))
        write_traces(artifacts.radio_traces, tmp_path)
        groups = artifacts.clock_groups()
        mem = JigsawPipeline().run(
            artifacts.radio_traces, clock_groups=groups
        )
        streamed = JigsawPipeline().run(
            open_trace_streams(tmp_path), clock_groups=groups
        )
        assert streamed.bootstrap.offsets_us == mem.bootstrap.offsets_us
        assert streamed.unification.stats == mem.unification.stats
        assert [
            (j.timestamp_us, j.channel, j.fcs, j.n_instances)
            for j in streamed.jframes
        ] == [
            (j.timestamp_us, j.channel, j.fcs, j.n_instances)
            for j in mem.jframes
        ]

    def test_unsorted_stream_downgrades_to_sorted_drain(self):
        """Disorder detected during the prefix read falls back to a full
        drain + sort, so the window gate stays correct."""
        frame = data_frame(seq=4)
        records = [
            record_for(frame, 0, ts) for ts in (500, 100, 900, 300)
        ]
        stream = RadioTrace(0, 1, source=[batch_from_records(records)])
        buffered, hi = stream.buffered_until(600)
        assert [r.timestamp_us for r in buffered[:hi]] == [100, 300, 500]
        assert [r.timestamp_us for r in stream.records] == [100, 300, 500, 900]

    def test_disorder_after_prefix_consumption_raises(self):
        """A record that sorts into a window the bootstrap already
        examined cannot be silently fixed — it must raise, both when a
        later widening round trips over it and at drain time."""
        frame = data_frame(seq=5)
        # Ordered through the first window, then — in the next batch,
        # after that window was handed out — a record from the past.
        def batches():
            return [
                batch_from_records(
                    [record_for(frame, 0, ts) for ts in run]
                )
                for run in ((100, 900, 2_000_000), (400, 3_000_000))
            ]

        stream = RadioTrace(0, 1, source=batches())
        buffered, hi = stream.buffered_until(1_000)
        assert hi == 2
        with pytest.raises(ValueError, match="local-time order"):
            stream.records
        # Widening (a second prefix request past the disorder) also raises.
        stream2 = RadioTrace(0, 1, source=batches())
        stream2.buffered_until(1_000)
        with pytest.raises(ValueError, match="local-time order"):
            stream2.buffered_until(2_500_000)
