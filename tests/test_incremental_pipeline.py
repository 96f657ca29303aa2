"""The single-use (feed/finish) reconstruction stages: sealed emission,
pickle round trips and feed-order independence, plus the I/O and cache
satellites of the streaming rework."""

import dataclasses
import gzip
import pickle

import pytest

from helpers import run_stage
from repro.core.link.attempt import AttemptAssembler
from repro.core.link.exchange import ExchangeAssembler
from repro.core.sync.bootstrap import bootstrap_synchronization
from repro.core.transport.flows import FlowCollector
from repro.core.unify import Unifier
from repro.jtrace.io import (
    RadioTrace,
    iter_record_batches,
    read_trace,
    write_trace,
)
from repro.jtrace.records import RecordKind, TraceRecord


@pytest.fixture(scope="module")
def small_jframes():
    from repro.sim import ScenarioConfig, run_scenario

    artifacts = run_scenario(ScenarioConfig.small(seed=42))
    bootstrap = bootstrap_synchronization(
        artifacts.radio_traces, clock_groups=artifacts.clock_groups()
    )
    return Unifier().unify(artifacts.radio_traces, bootstrap).jframes


def attempt_fingerprint(attempt, key=id):
    """``key`` names a jframe: its identity unless a test says otherwise."""
    return (
        attempt.transmitter,
        attempt.receiver,
        None if attempt.data is None else key(attempt.data),
        None if attempt.cts is None else key(attempt.cts),
        None if attempt.ack is None else key(attempt.ack),
    )


def exchange_fingerprint(exchange, key=id):
    return (
        exchange.transmitter,
        exchange.receiver,
        tuple(attempt_fingerprint(a, key) for a in exchange.attempts),
        exchange.delivered,
        exchange.needed_inference,
    )


class TestIncrementalAttempts:
    def test_fed_attempts_are_sealed(self, small_jframes):
        """An attempt returned by feed() must never mutate afterwards."""
        asm = AttemptAssembler()
        emitted = []  # (attempt, fingerprint at emission time)
        for jframe in small_jframes:
            for attempt in asm.feed(jframe):
                emitted.append((attempt, attempt_fingerprint(attempt)))
        for attempt in asm.finish():
            emitted.append((attempt, attempt_fingerprint(attempt)))
        assert emitted
        for attempt, emitted_fp in emitted:
            assert attempt_fingerprint(attempt) == emitted_fp


def positional(jframes):
    """A fingerprint ``key`` naming a jframe by its place in ``jframes``."""
    position = {id(jframe): i for i, jframe in enumerate(jframes)}
    return lambda jframe: position[id(jframe)]


def working_sets(attempt_asm, exchange_asm):
    """The assemblers' working sets in order, each member named by its
    place in the structure that owns it: a sender state by its
    transmitter, a pending ACK wait by its place in the pending lists."""
    sender_of = {
        id(state): sender for sender, state in exchange_asm._senders.items()
    }
    pending = [
        id(entry)
        for entries in attempt_asm._pending_data.values()
        for entry in entries
    ]
    return (
        [sender_of[id(state)] for state in exchange_asm._open_states],
        [sender_of[id(state)] for state in exchange_asm._orphan_states],
        sorted(pending.index(id(entry)) for entry in attempt_asm._unsealed),
    )


def test_assemblers_survive_a_pickle_round_trip():
    """Both assemblers pickled mid-stream, with every working set
    occupied, then fed the rest alongside the originals: the copies
    emit the same attempts and exchanges, in the same order, with the
    same stats.  The copies hold copied jframes, so fingerprints name a
    jframe by its position in the stream."""
    from repro.sim import run_scenario
    from repro.sim.registry import scenario_config

    artifacts = run_scenario(scenario_config("flash_crowd", "tiny", seed=7))
    bootstrap = bootstrap_synchronization(
        artifacts.radio_traces, clock_groups=artifacts.clock_groups()
    )
    jframes = Unifier().unify(artifacts.radio_traces, bootstrap).jframes
    attempts, exchanges = AttemptAssembler(), ExchangeAssembler()
    # The first boundary past half the stream with an attempt awaiting
    # its ACK, an open exchange and an orphan queue all at once.
    cut = 0
    while cut < len(jframes) and not (
        cut >= len(jframes) // 2
        and attempts._unsealed
        and exchanges._open_states
        and exchanges._orphan_states
    ):
        for attempt in attempts.feed(jframes[cut]):
            exchanges.feed(attempt)
        cut += 1
    assert cut < len(jframes)
    assert attempts._unsealed
    assert exchanges._open_states and exchanges._orphan_states

    copies = pickle.loads(pickle.dumps((attempts, exchanges, jframes)))
    assert working_sets(*copies[:2]) == working_sets(attempts, exchanges)
    runs = []
    for attempt_asm, exchange_asm, frames in [
        (attempts, exchanges, jframes), copies
    ]:
        # Step by step, fingerprinted as emitted: a working set lost in
        # the round trip shows as an attempt sealed before its ACK or an
        # orphan discarded late, even where the final totals agree.
        key = positional(frames)
        steps = []
        for jframe in frames[cut:] + [None]:
            fed = (
                attempt_asm.finish() if jframe is None
                else attempt_asm.feed(jframe)
            )
            emitted = [e for a in fed for e in exchange_asm.feed(a)]
            if jframe is None:
                emitted.extend(exchange_asm.finish())
            steps.append((
                [attempt_fingerprint(a, key) for a in fed],
                [exchange_fingerprint(e, key) for e in emitted],
                dataclasses.astuple(attempt_asm.stats),
                dataclasses.astuple(exchange_asm.stats),
            ))
        runs.append(steps)
    original, restored = runs
    assert any(fed for fed, _, _, _ in original)
    assert any(emitted for _, emitted, _, _ in original)
    assert restored == original


class TestFlowCollector:
    def test_feed_order_does_not_matter(self, small_jframes):
        attempts = run_stage(AttemptAssembler(), small_jframes)
        exchanges = run_stage(ExchangeAssembler(), attempts)

        forward = run_stage(FlowCollector(), exchanges)
        # Reversed feed: finish() time-sorts, so the flows are the same.
        backward = run_stage(FlowCollector(), reversed(exchanges))

        assert forward
        assert [f.key for f in backward] == [f.key for f in forward]
        for bf, ff in zip(backward, forward):
            assert [
                (o.time_us, id(o.exchange)) for o in bf.observations
            ] == [(o.time_us, id(o.exchange)) for o in ff.observations]


def _make_record(radio_id, ts, channel=1, snap=b"x" * 24):
    return TraceRecord(
        radio_id=radio_id, timestamp_us=ts, kind=RecordKind.VALID,
        channel=channel, rate_mbps=11.0, rssi_dbm=-60.0,
        frame_len=len(snap), fcs=1234, snap=snap, duration_us=50,
    )


class TestSortedFastPath:
    def test_presorted_returns_self(self):
        trace = RadioTrace(0, 1, [_make_record(0, t) for t in (1, 2, 2, 5)])
        assert trace.sorted_by_local_time() is trace

    def test_unsorted_returns_sorted_copy(self):
        trace = RadioTrace(0, 1, [_make_record(0, t) for t in (5, 1, 3)])
        ordered = trace.sorted_by_local_time()
        assert ordered is not trace
        assert [r.timestamp_us for r in ordered.records] == [1, 3, 5]
        # Original untouched.
        assert [r.timestamp_us for r in trace.records] == [5, 1, 3]

    def test_empty_trace(self):
        trace = RadioTrace(0, 1, [])
        assert trace.sorted_by_local_time() is trace


class TestStreamingTraceReader:
    def test_roundtrip_with_tiny_chunks(self, tmp_path):
        records = [
            _make_record(3, 100 * i, snap=bytes([i % 256]) * (i % 40))
            for i in range(200)
        ]
        trace = RadioTrace(3, 6, records)
        data_path = write_trace(trace, tmp_path)
        # A chunk smaller than one record forces the partial-record path.
        streamed = [
            record
            for batch in iter_record_batches(data_path, chunk_bytes=7)
            for record in batch.records
        ]
        assert streamed == records
        # And the full read_trace wrapper agrees.
        back = read_trace(data_path)
        assert back.records == records
        assert (back.radio_id, back.channel) == (3, 6)

    def test_truncated_file_raises(self, tmp_path):
        records = [_make_record(1, 10, snap=b"y" * 30)]
        trace = RadioTrace(1, 1, records)
        data_path = write_trace(trace, tmp_path)
        raw = gzip.decompress(data_path.read_bytes())
        data_path.write_bytes(gzip.compress(raw[:-4]))
        with pytest.raises(ValueError, match="truncated"):
            list(iter_record_batches(data_path))


class TestParseCacheEviction:
    def test_bounded_eviction_ages_one_entry(self, monkeypatch):
        import repro.core.sync.refs as refs

        monkeypatch.setattr(refs, "_PARSE_CACHE_LIMIT", 4)
        refs._PARSE_CACHE.clear()
        records = [
            _make_record(0, i, snap=bytes([i]) * 24) for i in range(5)
        ]
        for record in records[:4]:
            refs.parse_record_frame(record)
        # A cache hit is a bare lookup — it must not grow the cache.
        refs.parse_record_frame(records[0])
        assert len(refs._PARSE_CACHE) == 4
        # Inserting a fifth entry evicts exactly one — the oldest
        # inserted, not the whole cache.
        refs.parse_record_frame(records[4])
        assert len(refs._PARSE_CACHE) == 4
        oldest_key = (records[0].snap, records[0].frame_len)
        assert oldest_key not in refs._PARSE_CACHE
        newest_key = (records[4].snap, records[4].frame_len)
        assert newest_key in refs._PARSE_CACHE
        refs._PARSE_CACHE.clear()
