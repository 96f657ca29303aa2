"""Unit tests for trace records and trace file I/O."""

import copy
import pickle
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dot11.constants import CAPTURE_SNAP_BYTES
from repro.jtrace.io import (
    DecodeHealth,
    RadioTrace,
    iter_record_batches,
    read_trace,
    read_traces,
    write_trace,
    write_traces,
)
from repro.jtrace.records import (
    FramedRun,
    RecordKind,
    TraceRecord,
    record_from_bytes,
    record_to_bytes,
)


def make_record(radio_id=1, ts=1000, kind=RecordKind.VALID, snap=b"abc",
                txid=7, rate=11.0):
    return TraceRecord(
        radio_id=radio_id,
        timestamp_us=ts,
        kind=kind,
        channel=6,
        rate_mbps=rate,
        rssi_dbm=-63.0,
        frame_len=len(snap),
        fcs=0xDEADBEEF,
        snap=snap if kind is not RecordKind.PHY_ERROR else b"",
        duration_us=222,
        truth_txid=txid,
    )


class TestTraceRecord:
    def test_round_trip(self):
        record = make_record()
        raw = record_to_bytes(record)
        decoded, offset = record_from_bytes(raw)
        assert decoded == record
        assert offset == len(raw)

    def test_negative_timestamp_survives(self):
        # Clock offsets can push local time negative near trace start.
        record = make_record(ts=-123_456)
        decoded, _ = record_from_bytes(record_to_bytes(record))
        assert decoded.timestamp_us == -123_456

    def test_phy_error_has_no_snap(self):
        with pytest.raises(ValueError):
            TraceRecord(
                radio_id=1, timestamp_us=0, kind=RecordKind.PHY_ERROR,
                channel=1, rate_mbps=1.0, rssi_dbm=-90.0, frame_len=0,
                fcs=0, snap=b"oops", duration_us=100,
            )

    def test_oversized_snap_rejected(self):
        with pytest.raises(ValueError):
            make_record(snap=b"z" * 500)

    def test_kind_properties(self):
        assert RecordKind.VALID.has_frame
        assert RecordKind.CORRUPT.has_frame
        assert not RecordKind.PHY_ERROR.has_frame
        assert make_record().is_valid_frame

    def test_stream_of_records(self):
        records = [make_record(ts=t) for t in range(0, 5000, 1000)]
        raw = b"".join(record_to_bytes(r) for r in records)
        decoded = []
        offset = 0
        while offset < len(raw):
            record, offset = record_from_bytes(raw, offset)
            decoded.append(record)
        assert decoded == records

    def test_truncated_raises(self):
        raw = record_to_bytes(make_record())
        with pytest.raises(ValueError):
            record_from_bytes(raw[:10])
        with pytest.raises(ValueError):
            record_from_bytes(raw[:-2])

    @given(
        ts=st.integers(min_value=-(2**40), max_value=2**40),
        snap=st.binary(max_size=200),
        rate=st.sampled_from([1.0, 2.0, 5.5, 11.0, 6.0, 54.0]),
    )
    def test_round_trip_property(self, ts, snap, rate):
        record = make_record(ts=ts, snap=snap, rate=rate)
        decoded, _ = record_from_bytes(record_to_bytes(record))
        assert decoded == record


class TestRecordContract:
    """One record type: a validated, tuple-backed value whichever
    decoder (or pickle, or copy) built it."""

    @given(
        kind=st.sampled_from(list(RecordKind)),
        snap=st.binary(max_size=CAPTURE_SNAP_BYTES + 64),
        rate=st.sampled_from([1.0, 2.0, 5.5, 11.0, 6.0, 54.0]),
        rssi=st.integers(min_value=-120, max_value=0),
        ts=st.integers(min_value=-(2**40), max_value=2**40),
        txid=st.integers(min_value=0, max_value=2**40),
    )
    def test_batch_and_scalar_decode_build_the_same_record(
        self, kind, snap, rate, rssi, ts, txid
    ):
        raw = record_to_bytes(
            make_record(ts=ts, kind=kind, snap=snap, rate=rate, txid=txid)
            ._replace(rssi_dbm=float(rssi))
        )
        scalar, _ = record_from_bytes(raw)
        run = FramedRun(raw)
        assert run.strict_violation() is None
        (batch,) = run.decode().records
        assert type(batch) is type(scalar) is TraceRecord
        assert tuple(batch) == tuple(scalar) and len(batch) == 11
        assert batch == scalar and hash(batch) == hash(scalar)
        assert pickle.dumps(batch) == pickle.dumps(scalar)
        restored = pickle.loads(pickle.dumps(batch))
        assert type(restored) is TraceRecord and restored == scalar

    def test_decoded_record_is_a_bare_tuple(self):
        # The allocation diet: no instance dict, nothing beyond the
        # eleven slots of the tuple itself.
        (record,) = FramedRun(record_to_bytes(make_record())).decode().records
        assert TraceRecord.__slots__ == ()
        assert not hasattr(record, "__dict__")
        assert sys.getsizeof(record) == sys.getsizeof(tuple(record))
        assert not hasattr(make_record(), "__dict__")


class TestRecordPickling:
    """Pickling, copying and replace-by-copy all rebuild through the
    validating constructor."""

    def test_copy_and_replace_still_work(self):
        record = make_record(snap=b"frame bytes")
        assert copy.copy(record) == record
        moved = record._replace(timestamp_us=5)
        assert type(moved) is TraceRecord and moved.timestamp_us == 5
        assert moved._replace(timestamp_us=1000) == record
        with pytest.raises(TypeError):
            record._replace(no_such_field=1)

    def test_replace_runs_the_constructor_checks(self):
        with pytest.raises(ValueError, match="snap exceeds"):
            make_record()._replace(snap=b"z" * 500)
        with pytest.raises(ValueError, match="PHY error"):
            make_record()._replace(kind=RecordKind.PHY_ERROR)
        phy = make_record(kind=RecordKind.PHY_ERROR)
        with pytest.raises(ValueError, match="PHY error"):
            phy._replace(snap=b"oops")

    def test_overlong_snap_cannot_ride_in_through_a_pickle(self):
        # Built behind the constructor's back, the way a hostile or
        # damaged payload would be; unpickling and copying go through
        # ``__new__`` and must refuse it.
        smuggled = tuple.__new__(  # repro: ignore[record-constructor]
            TraceRecord, tuple(make_record())[:8] + (b"z" * 500, 222, 7)
        )
        assert len(smuggled.snap) == 500
        with pytest.raises(ValueError, match="snap exceeds"):
            pickle.loads(pickle.dumps(smuggled))
        with pytest.raises(ValueError, match="snap exceeds"):
            copy.copy(smuggled)


class TestTraceFiles:
    def test_write_read_round_trip(self, tmp_path):
        trace = RadioTrace(radio_id=5, channel=6)
        for t in range(0, 10_000, 500):
            trace.append(make_record(radio_id=5, ts=t))
        write_trace(trace, tmp_path)
        loaded = read_trace(tmp_path / "radio_0005.jtr.gz")
        assert loaded.radio_id == 5
        assert loaded.channel == 6
        assert loaded.records == trace.records

    def test_index_mismatch_detected(self, tmp_path):
        trace = RadioTrace(radio_id=1, channel=1, records=[make_record()])
        write_trace(trace, tmp_path)
        meta = tmp_path / "radio_0001.meta.json"
        meta.write_text(meta.read_text().replace('"records": 1', '"records": 2'))
        with pytest.raises(ValueError):
            read_trace(tmp_path / "radio_0001.jtr.gz")

    @pytest.mark.parametrize("delta", [5, -5])
    def test_strict_stream_checks_the_index_count(self, tmp_path, delta):
        """A strict lazily read stream holds the file to its sidecar's
        record count once it is exhausted, as read_trace does — whether
        the sidecar overstates or understates the count."""
        import json

        from repro.jtrace.io import _meta_path, open_trace_stream

        trace = RadioTrace(1, 6, [make_record(ts=100 * i) for i in range(42)])
        data_path = write_trace(trace, tmp_path)
        meta_path = _meta_path(data_path)
        meta = json.loads(meta_path.read_text())
        meta["records"] += delta
        meta_path.write_text(json.dumps(meta))
        mismatch = f"index mismatch: 42 records vs {42 + delta} indexed"
        with pytest.raises(ValueError, match=mismatch):
            read_trace(data_path)
        stream = open_trace_stream(data_path)
        assert stream.ensure_index(41)  # the count is known only at the end
        with pytest.raises(ValueError, match=mismatch):
            stream.records
        # Tolerant policies expect to lose records: no count check.
        assert len(open_trace_stream(data_path, policy="skip")) == 42

    def test_multi_trace_directory(self, tmp_path):
        traces = [
            RadioTrace(radio_id=i, channel=1, records=[make_record(radio_id=i)])
            for i in range(4)
        ]
        write_traces(traces, tmp_path)
        loaded = read_traces(tmp_path)
        assert [t.radio_id for t in loaded] == [0, 1, 2, 3]

    def test_directories_read_back_in_radio_id_order(self, tmp_path):
        """File names pad ids to four digits, so radio 10000's file sorts
        between 1001's and 9999's; both readers still return the traces
        in the memory order, radio-id order."""
        from repro.jtrace.io import open_trace_streams

        traces = [
            RadioTrace(radio_id=i, channel=1, records=[make_record(radio_id=i)])
            for i in (1001, 9999, 10000)
        ]
        write_traces(traces, tmp_path)
        memory_order = [t.radio_id for t in traces]
        assert [t.radio_id for t in read_traces(tmp_path)] == memory_order
        streams = open_trace_streams(tmp_path)
        assert [t.radio_id for t in streams] == memory_order
        assert [t.records for t in streams] == [t.records for t in traces]

    def test_empty_trace(self, tmp_path):
        trace = RadioTrace(radio_id=9, channel=11)
        write_trace(trace, tmp_path)
        loaded = read_trace(tmp_path / "radio_0009.jtr.gz")
        assert len(loaded) == 0
        assert loaded.first_timestamp_us is None

    def test_sorted_by_local_time(self):
        trace = RadioTrace(
            radio_id=1, channel=1,
            records=[make_record(ts=500), make_record(ts=100)],
        )
        ordered = trace.sorted_by_local_time()
        assert [r.timestamp_us for r in ordered] == [100, 500]

    def test_sorted_copy_keeps_ingest_metadata(self):
        from repro.jtrace.io import DecodeHealth

        health = DecodeHealth(records_decoded=2)
        trace = RadioTrace(
            1, 1, [make_record(ts=500), make_record(ts=100)], 3,
            decode_health=health, channel_set=frozenset({6}),
        )
        ordered = trace.sorted_by_local_time()
        assert ordered is not trace
        assert ordered.building_id == 3
        assert ordered.decode_health is health
        assert ordered.channel_set == frozenset({6})


class TestValueSharing:
    """Decoded records share equal field values within one read, and
    only within it."""

    RADIOS = (1, 2, 3)
    TRANSMISSIONS = 6

    def _corpus(self, tmp_path):
        """Every radio captures every transmission, plus one damaged
        capture and one PHY error of its own."""
        from helpers import data_frame, record_for

        traces = []
        for radio in self.RADIOS:
            records = [
                record_for(
                    data_frame(seq=i, body=b"x" * (40 + i)), radio,
                    ts=10_000 * i + radio, txid=1000 + i,
                )._replace(duration_us=300 + i, rssi_dbm=-50.0 - radio)
                for i in range(self.TRANSMISSIONS)
            ]
            records.append(
                record_for(
                    data_frame(seq=99), radio, ts=90_000 + radio,
                    kind=RecordKind.CORRUPT,
                    corrupt_bytes=bytes([radio]) * 60,
                )
            )
            records.append(
                record_for(
                    data_frame(), radio, ts=95_000 + radio,
                    kind=RecordKind.PHY_ERROR,
                )
            )
            traces.append(RadioTrace(radio, 6, records))
        write_traces(traces, tmp_path)
        return traces

    @staticmethod
    def _live_tables():
        import gc

        from repro.jtrace.records import ValueTables

        gc.collect()
        return sum(isinstance(o, ValueTables) for o in gc.get_objects())

    def test_one_transmission_is_one_set_of_objects(self, tmp_path):
        from repro.jtrace.io import open_trace_streams

        written = self._corpus(tmp_path)
        streams = [t.records for t in open_trace_streams(tmp_path)]
        scalar = read_traces(tmp_path, vectorized=False)
        assert streams == [t.records for t in scalar]
        assert streams == [t.records for t in written]
        for i in range(self.TRANSMISSIONS):
            first, *others = (records[i] for records in streams)
            assert first.kind is RecordKind.VALID
            for record in others:
                assert record.snap is first.snap
                assert record.fcs is first.fcs
                assert record.duration_us is first.duration_us
                assert record.truth_txid is first.truth_txid
                assert record.rate_mbps is first.rate_mbps
        # Damaged captures are unique, and the scalar reference shares
        # nothing.
        corrupt = [records[self.TRANSMISSIONS] for records in streams]
        assert len({id(r.snap) for r in corrupt}) == len(self.RADIOS)
        first, *others = (t.records[0] for t in scalar)
        assert all(r.snap is not first.snap for r in others)

    def test_tables_are_scoped_to_one_read(self, tmp_path):
        from repro.jtrace.io import open_trace_stream, open_trace_streams

        self._corpus(tmp_path)
        before = self._live_tables()
        one = open_trace_streams(tmp_path)
        other = open_trace_streams(tmp_path)
        lone = open_trace_stream(tmp_path / "radio_0001.jtr.gz")
        # One set per open_trace_streams call, one per lone stream...
        assert self._live_tables() == before + 3
        for trace in (*one, *other, lone):
            trace.records
        # ...and none outlives its drained streams.
        assert self._live_tables() == before
        # ...and separate reads hand out equal, distinct objects.
        txid = one[0].records[0].truth_txid
        assert txid > 256
        for trace in (other[0], lone):
            assert trace.records[0].truth_txid == txid
            assert trace.records[0].truth_txid is not txid


class TestSidecar:
    """The JSON index sidecar: one builder, read by every reader."""

    def _trace(self, n=32):
        records = [
            make_record(ts=1000 + 10 * i, snap=bytes([65 + i % 26]) * (5 + i))
            ._replace(channel=(1, 6)[i % 2])
            for i in range(n)
        ]
        return RadioTrace(radio_id=3, channel=6, records=records, building_id=2)

    def test_both_writers_build_one_sidecar(self, tmp_path):
        import json

        from repro.sim import ScenarioConfig, write_faulty_traces

        trace = self._trace()
        write_trace(trace, tmp_path / "clean")
        write_faulty_traces([trace], tmp_path / "faulty", ScenarioConfig.tiny())
        clean, faulty = (
            json.loads((tmp_path / side / "radio_0003.meta.json").read_text())
            for side in ("clean", "faulty")
        )
        assert clean == faulty == {
            "radio_id": 3,
            "channel": 6,
            "building_id": 2,
            "records": 32,
            "first_timestamp_us": 1000,
            "last_timestamp_us": 1310,
            "channels": [1, 6],
        }

    def test_legacy_sidecar_decodes_the_same_in_small_chunks(self, tmp_path):
        """Older sidecars declare no channels and carry keys today's
        readers ignore (a retired per-record framing table); they read
        exactly like current ones, under both engines, with chunks far
        smaller than the stream."""
        import json

        from repro.jtrace.io import DecodeHealth, _meta_path, iter_record_batches

        trace = self._trace()
        data_path = write_trace(trace, tmp_path)
        meta_path = _meta_path(data_path)
        meta = json.loads(meta_path.read_text())
        del meta["channels"]
        meta["retired_table"] = "AAAA"
        meta_path.write_text(json.dumps(meta))
        for policy in ("strict", "skip"):
            for vectorized in (True, False):
                health = DecodeHealth()
                decoded = [
                    r
                    for batch in iter_record_batches(
                        data_path,
                        chunk_bytes=64,
                        policy=policy,
                        health=health,
                        vectorized=vectorized,
                    )
                    for r in batch.records
                ]
                assert decoded == trace.records
                assert health == DecodeHealth(records_decoded=32)


class TestStreamLifecycle:
    """``close()`` releases a partially read file; the buffer survives."""

    def _write(self, tmp_path, n=300):
        trace = RadioTrace(
            radio_id=5,
            channel=6,
            records=[make_record(radio_id=5, ts=1000 + 50 * i)
                     for i in range(n)],
        )
        return write_trace(trace, tmp_path)

    @staticmethod
    def _holds_descriptor(data_path):
        import os

        fd_dir = "/proc/self/fd"
        if not os.path.isdir(fd_dir):
            pytest.skip("/proc/self/fd not available")
        targets = set()
        for fd in os.listdir(fd_dir):
            try:
                targets.add(os.readlink(os.path.join(fd_dir, fd)))
            except OSError:
                continue  # the listing's own descriptor, already closed
        return os.path.realpath(data_path) in targets

    def test_close_releases_file_descriptor(self, tmp_path):
        from repro.jtrace.io import open_trace_stream

        data_path = self._write(tmp_path)
        stream = open_trace_stream(data_path, chunk_bytes=256)
        assert stream.ensure_index(0)  # mid-trace: the file is open
        assert self._holds_descriptor(data_path)
        stream.close()
        assert not self._holds_descriptor(data_path)
        stream.close()  # idempotent

    def test_context_manager_releases_file_descriptor(self, tmp_path):
        from repro.jtrace.io import open_trace_stream

        data_path = self._write(tmp_path)
        with open_trace_stream(data_path, chunk_bytes=256) as stream:
            assert stream.ensure_index(5)
            assert self._holds_descriptor(data_path)
        assert not self._holds_descriptor(data_path)

    def test_closed_stream_serves_buffered_records(self, tmp_path):
        """A consumer that stops pulling mid-trace and closes keeps what
        it decoded: the replay buffer outlives the source."""
        from repro.jtrace.io import open_trace_stream

        data_path = self._write(tmp_path, n=600)
        stream = open_trace_stream(data_path, chunk_bytes=128)
        assert stream.ensure_index(0)
        buffered = list(stream.replay_buffer)
        assert 0 < len(buffered) < 600
        stream.close()
        assert stream.records == buffered
        assert not stream.ensure_index(len(buffered))


class TestStrictFailureIsSticky:
    """``strict`` promises "any damage raises" — on every access, not
    just the one that met the damage."""

    def _damaged(self, tmp_path, n=300, bad=200):
        import gzip

        from repro.jtrace.records import _HEADER

        records = [make_record(radio_id=5, ts=1000 + 50 * i) for i in range(n)]
        data_path = write_trace(RadioTrace(5, 6, records), tmp_path)
        raw = bytearray(gzip.decompress(data_path.read_bytes()))
        kind_offset = bad * (_HEADER.size + 3) + 10  # after radio_id, ts
        raw[kind_offset] = 238
        data_path.write_bytes(gzip.compress(bytes(raw)))
        return data_path

    @pytest.mark.parametrize("vectorized", [True, False])
    def test_second_access_raises_the_same_error(self, tmp_path, vectorized):
        from repro.jtrace.io import open_trace_stream

        stream = open_trace_stream(
            self._damaged(tmp_path), vectorized=vectorized, chunk_bytes=1024
        )
        with pytest.raises(ValueError, match="238 is not a valid") as first:
            list(stream)
        for access in (
            lambda: stream.records,
            lambda: len(stream),
            lambda: list(stream),
            lambda: stream.ensure_index(250),
            lambda: stream.buffered_until(10**9),
        ):
            with pytest.raises(ValueError) as again:
                access()
            assert again.value is first.value
        # What decoded before the damage is still there to inspect.
        assert 0 < len(stream.replay_buffer) <= 200

    def test_skip_policy_is_unaffected(self, tmp_path):
        from repro.jtrace.io import open_trace_stream

        stream = open_trace_stream(self._damaged(tmp_path), policy="skip")
        assert len(list(stream)) == len(stream.records) == 299
        assert stream.decode_health.records_skipped == 1

    def test_record_source_failure_is_sticky(self):
        from repro.jtrace.records import batch_from_records

        def source():
            yield batch_from_records([make_record(ts=1)])
            raise RuntimeError("feed died")

        stream = RadioTrace(1, 6, source=source())
        with pytest.raises(RuntimeError, match="feed died"):
            stream.records
        with pytest.raises(RuntimeError, match="feed died"):
            stream.records


class TestDecoderMemoryBound:
    """The decoder holds at most ``chunk_bytes`` of decompressed data
    plus one partial record under either policy, and a damaged gzip
    trailer costs only the inflater step that met it."""

    CHUNK = 256

    @pytest.fixture
    def small_records(self, tmp_path):
        records = [
            make_record(radio_id=5, ts=1000 + 50 * i) for i in range(5000)
        ]
        return write_trace(RadioTrace(5, 6, records), tmp_path), records

    @staticmethod
    def _encoded_bytes(records):
        return sum(len(record_to_bytes(record)) for record in records)

    @pytest.mark.parametrize("vectorized", [True, False])
    @pytest.mark.parametrize("policy", ["strict", "skip"])
    def test_no_batch_outgrows_one_chunk(
        self, small_records, policy, vectorized
    ):
        path, records = small_records
        largest = max(len(record_to_bytes(record)) for record in records)
        decoded = []
        for batch in iter_record_batches(
            path, chunk_bytes=self.CHUNK, policy=policy, vectorized=vectorized
        ):
            assert self._encoded_bytes(batch.records) <= self.CHUNK + largest
            decoded.extend(batch.records)
        assert decoded == records

    @pytest.mark.parametrize("vectorized", [True, False])
    def test_damaged_trailer_loses_at_most_one_step(
        self, small_records, vectorized
    ):
        path, records = small_records
        gz = bytearray(path.read_bytes())
        gz[-8] ^= 0xFF  # the gzip trailer's CRC32
        path.write_bytes(bytes(gz))
        with pytest.raises(
            ValueError, match="corrupt or truncated compressed stream"
        ):
            read_trace(path, vectorized=vectorized)
        health = DecodeHealth()
        kept = [
            record
            for batch in iter_record_batches(
                path, chunk_bytes=self.CHUNK, policy="skip", health=health,
                vectorized=vectorized,
            )
            for record in batch.records
        ]
        assert health.stream_errors == 1
        assert kept == records[: len(kept)]
        smallest = min(len(record_to_bytes(record)) for record in records)
        assert len(records) - len(kept) <= -(-self.CHUNK // smallest) + 1
