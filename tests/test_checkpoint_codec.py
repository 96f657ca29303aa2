"""The checkpoint codec's contracts, below the daemon.

* a finalized jframe pickles as its scalars plus **one flat run** of
  instance and record fields — no per-instance or per-record object —
  and comes back field-for-field, with the sharing a checkpoint's single
  object graph relies on intact;
* ``load_checkpoint`` answers every unusable file with
  :class:`CheckpointError`, including a correctly framed payload that
  no longer unpickles;
* ``save_checkpoint`` is atomic in failure too: a write that raises
  leaves the previous checkpoint loadable and no temp file behind.
"""

import copy
import dataclasses
import os
import pickle
import struct
import zlib

import pytest

from repro.core.link.attempt import TransmissionAttempt
from repro.core.sync.bootstrap import BootstrapResult
from repro.core.unify.jframe import Instance, JFrame, JFrameKind
from repro.core.unify.unifier import Unifier
from repro.dot11.address import MacAddress
from repro.dot11.constants import CAPTURE_SNAP_BYTES
from repro.dot11.frame import make_data
from repro.dot11.serialize import frame_to_bytes
from repro.jtrace.io import RadioTrace
from repro.jtrace.records import RecordKind, TraceRecord
from repro.service import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    CheckpointError,
    CheckpointState,
    load_checkpoint,
    save_checkpoint,
)

pytestmark = pytest.mark.service

SRC = MacAddress.parse("00:0c:0c:00:00:01")
DST = MacAddress.parse("00:0a:0a:00:00:01")
FRAME = make_data(SRC, DST, DST, seq=7, body=b"p" * 64)
RAW = frame_to_bytes(FRAME)
DAMAGED = bytearray(RAW)
DAMAGED[-6] ^= 0xFF  # tail damage: the header (and addr2) survive
DAMAGED = bytes(DAMAGED)


def record(radio_id, ts, kind=RecordKind.VALID):
    raw = {RecordKind.VALID: RAW, RecordKind.CORRUPT: DAMAGED}.get(kind, b"")
    return TraceRecord(
        radio_id=radio_id, timestamp_us=ts, kind=kind, channel=1,
        rate_mbps=11.0, rssi_dbm=-60.0, frame_len=len(raw),
        fcs=int.from_bytes(raw[-4:], "little"), snap=raw[:200],
        duration_us=100, truth_txid=ts,
    )


def unify_one(*kinds):
    """One jframe from one capture per kind, radios 0.., 5 us apart."""
    traces = [
        RadioTrace(r, 1, [record(r, 1000 + 5 * r, kind)])
        for r, kind in enumerate(kinds)
    ]
    bootstrap = BootstrapResult(offsets_us={t.radio_id: 0.0 for t in traces})
    (jframe,) = Unifier().unify(traces, bootstrap).jframes
    return jframe


@pytest.fixture(
    params=[
        (JFrameKind.VALID, [RecordKind.VALID, RecordKind.VALID,
                            RecordKind.CORRUPT, RecordKind.PHY_ERROR]),
        (JFrameKind.CORRUPT, [RecordKind.CORRUPT, RecordKind.PHY_ERROR]),
        (JFrameKind.PHY_ERROR, [RecordKind.PHY_ERROR]),
    ],
    ids=lambda p: p[0].value,
)
def jframe(request):
    kind, captures = request.param
    jf = unify_one(*captures)
    assert jf.kind is kind and jf.n_instances == len(captures)
    return jf


def assert_same_content(copied, original):
    assert type(copied) is JFrame
    assert dataclasses.astuple(copied) == dataclasses.astuple(original)
    for inst in copied.instances:
        assert type(inst) is Instance and type(inst.record) is TraceRecord


class TestJFramePickleForm:
    def test_round_trips_field_for_field(self, jframe):
        if jframe.kind is JFrameKind.VALID:
            # The shape a checkpoint must not lose: parsed and unparsed
            # instances side by side in one jframe.
            assert {i.frame is None for i in jframe.instances} == {True, False}
        assert_same_content(pickle.loads(pickle.dumps(jframe)), jframe)

    def test_copy_yields_equal_content(self, jframe):
        assert_same_content(copy.copy(jframe), jframe)

    def test_no_per_instance_or_per_record_reduce(self, jframe):
        """The run is flat: the pickle names neither class (each would
        mean one reduce call and one memoised tuple per retained
        record, the cost this form exists to remove)."""
        payload = pickle.dumps(jframe, protocol=pickle.HIGHEST_PROTOCOL)
        assert b"Instance" not in payload
        assert b"TraceRecord" not in payload

    def test_one_jframe_in_two_attempts_is_one_object(self):
        jf = unify_one(RecordKind.VALID, RecordKind.VALID)
        first = TransmissionAttempt(SRC, DST, data=jf)
        second = TransmissionAttempt(SRC, DST, data=jf)
        a, b, fifo = pickle.loads(pickle.dumps([first, second, [jf]]))
        assert a.data is b.data is fifo[0]

    def test_frame_shared_with_an_instance_stays_shared(self):
        jf = unify_one(RecordKind.VALID, RecordKind.VALID)
        assert jf.frame is jf.instances[0].frame is jf.instances[1].frame
        loaded = pickle.loads(pickle.dumps(jf))
        assert loaded.frame is not None
        assert loaded.frame is loaded.instances[0].frame
        assert loaded.frame is loaded.instances[1].frame


def empty_state(checkpoints_written=0):
    return CheckpointState(
        merge=None, drive=None, bootstrap=None,
        checkpoints_written=checkpoints_written,
    )


def write_framed(path, payload, version=CHECKPOINT_VERSION):
    """A checkpoint file whose header is right in every respect."""
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


class _Forged:
    """Pickles as whatever reduce value it is handed."""

    def __init__(self, reduced):
        self.reduced = reduced

    def __reduce__(self):
        return self.reduced


class TestLoadRefusesWhatDoesNotUnpickle:
    @pytest.mark.parametrize(
        "payload, cause",
        [
            # Protocol-0 GLOBAL opcodes: a class, then a module, that
            # this build does not have.
            (b"crepro.service.checkpoint\nSinceDeleted\n.", AttributeError),
            (b"crepro.service.since_deleted\nState\n.", ModuleNotFoundError),
        ],
        ids=["missing-class", "missing-module"],
    )
    def test_drifted_class_is_a_checkpoint_error(
        self, tmp_path, payload, cause
    ):
        path = tmp_path / "drifted.ckpt"
        write_framed(path, payload)
        with pytest.raises(CheckpointError, match="does not unpickle") as err:
            load_checkpoint(path)
        assert isinstance(err.value.__cause__, cause)

    def test_flat_run_still_goes_through_the_record_constructor(
        self, tmp_path
    ):
        rebuild, args = unify_one(RecordKind.VALID).__reduce__()
        run = args[-1]
        snap_at = TraceRecord._fields.index("snap")
        assert run[snap_at] == RAW[:200]
        run[snap_at] = b"x" * (CAPTURE_SNAP_BYTES + 65)
        state = empty_state()
        state.merge = [[_Forged((rebuild, args))]]
        path = tmp_path / "overlong.ckpt"
        write_framed(path, pickle.dumps(state))
        with pytest.raises(CheckpointError, match="snap exceeds") as err:
            load_checkpoint(path)
        assert isinstance(err.value.__cause__, ValueError)


def test_version_11_checkpoint_is_refused(tmp_path):
    """Version 11 counted the quarantined radios into a stats object at
    start, pickled a merge cursor without its VALID count and gave
    every clock track its own skew weight; this build reads quarantined
    radios through their cursors, counts what is VALID as it reads and
    keeps the weight a constant."""
    path = tmp_path / "v11.ckpt"
    write_framed(path, pickle.dumps(empty_state()), version=11)
    with pytest.raises(CheckpointError, match="version 11"):
        load_checkpoint(path)


class TestSaveIsAtomicInFailure:
    def test_failed_fsync_strands_no_temp_file(self, tmp_path, monkeypatch):
        path = tmp_path / "svc.ckpt"
        written = save_checkpoint(path, empty_state(checkpoints_written=1))
        assert written == path.stat().st_size

        def failing_fsync(fd):
            raise OSError("disk full")

        monkeypatch.setattr(os, "fsync", failing_fsync)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, empty_state(checkpoints_written=2))
        monkeypatch.undo()

        assert [p.name for p in tmp_path.iterdir()] == ["svc.ckpt"]
        assert load_checkpoint(path).checkpoints_written == 1
