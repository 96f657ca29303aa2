"""Incremental (feed/finish) stage APIs must match their batch wrappers,
plus the I/O and cache satellites of the streaming rework."""

import gzip

import pytest

from repro.core.link.attempt import AttemptAssembler
from repro.core.link.exchange import ExchangeAssembler
from repro.core.sync.bootstrap import bootstrap_synchronization
from repro.core.transport.flows import FlowCollector, collect_flows
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


def attempt_fingerprint(attempt):
    return (
        attempt.transmitter,
        attempt.receiver,
        None if attempt.data is None else id(attempt.data),
        None if attempt.cts is None else id(attempt.cts),
        None if attempt.ack is None else id(attempt.ack),
    )


def exchange_fingerprint(exchange):
    return (
        exchange.transmitter,
        exchange.receiver,
        tuple(attempt_fingerprint(a) for a in exchange.attempts),
        exchange.delivered,
        exchange.needed_inference,
    )


class TestIncrementalAttempts:
    def test_feed_matches_assemble(self, small_jframes):
        batch_asm = AttemptAssembler()
        batch = batch_asm.assemble(small_jframes)

        inc_asm = AttemptAssembler()
        streamed = []
        for jframe in small_jframes:
            streamed.extend(inc_asm.feed(jframe))
        streamed.extend(inc_asm.finish())

        assert [attempt_fingerprint(a) for a in streamed] == [
            attempt_fingerprint(a) for a in batch
        ]
        assert inc_asm.stats == batch_asm.stats

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


class TestAssemblerReuse:
    def test_attempt_assembler_reusable_after_finish(self, small_jframes):
        asm = AttemptAssembler()
        first = asm.assemble(small_jframes)
        second = asm.assemble(small_jframes)
        # finish() resets the pending state: a second run over the same
        # stream must produce the same structure (stats keep accumulating).
        assert [attempt_fingerprint(a) for a in second] == [
            attempt_fingerprint(a) for a in first
        ]
        fresh = AttemptAssembler()
        fresh.assemble(small_jframes)
        # Counters accumulate across runs (seed semantics): attempts is
        # this run's data attempts plus the cumulative orphaned ACKs.
        assert asm.stats.jframes_in == 2 * fresh.stats.jframes_in
        assert asm.stats.attempts == (
            fresh.stats.attempts + fresh.stats.acks_orphaned
        )

    def test_exchange_assembler_reusable_after_finish(self, small_jframes):
        attempts = AttemptAssembler().assemble(small_jframes)
        asm = ExchangeAssembler()
        first = asm.assemble(attempts)
        second = asm.assemble(attempts)
        assert [exchange_fingerprint(e) for e in second] == [
            exchange_fingerprint(e) for e in first
        ]
        fresh = ExchangeAssembler()
        fresh.assemble(attempts)
        assert asm.stats.exchanges == fresh.stats.exchanges


class TestIncrementalExchanges:
    def test_feed_matches_assemble(self, small_jframes):
        attempts = AttemptAssembler().assemble(small_jframes)

        batch_asm = ExchangeAssembler()
        batch = batch_asm.assemble(attempts)

        inc_asm = ExchangeAssembler()
        streamed = []
        for attempt in attempts:
            streamed.extend(inc_asm.feed(attempt))
        streamed.extend(inc_asm.finish())
        streamed.sort(key=lambda e: e.start_us)

        assert [exchange_fingerprint(e) for e in streamed] == [
            exchange_fingerprint(e) for e in batch
        ]
        assert inc_asm.stats == batch_asm.stats


class TestFlowCollector:
    def test_feed_matches_collect_flows(self, small_jframes):
        attempts = AttemptAssembler().assemble(small_jframes)
        exchanges = ExchangeAssembler().assemble(attempts)

        batch = collect_flows(exchanges)
        collector = FlowCollector()
        # Feed in closure-ish (shuffled) order: result must not depend on it.
        for exchange in reversed(exchanges):
            collector.feed(exchange)
        streamed = collector.finish()

        assert [f.key for f in streamed] == [f.key for f in batch]
        for sf, bf in zip(streamed, batch):
            assert [
                (o.time_us, id(o.exchange)) for o in sf.observations
            ] == [(o.time_us, id(o.exchange)) for o in bf.observations]


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
