"""Trace records — the jigdump analogue.

Each monitor radio produces a stream of :class:`TraceRecord`: one per
physical event it observed.  Mirroring the modified MadWifi driver of
Section 3.3, the stream includes not just valid frames but "all available
physical layer events, including corrupted frames and physical errors", and
payloads are snapped to 200 bytes (Section 5).

``truth_txid`` carries the simulator's ground-truth transmission id.  The
real system has no such field — it exists so the evaluation can score
Jigsaw's output against an oracle, and the Jigsaw pipeline itself is
forbidden from reading it (enforced by convention and exercised by tests
that scramble it).
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from itertools import repeat
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Tuple,
)

import numpy as _np

from ..dot11.constants import CAPTURE_SNAP_BYTES


class RecordKind(enum.Enum):
    VALID = 1        # FCS-good frame capture
    CORRUPT = 2      # frame capture with FCS failure (CRC error)
    PHY_ERROR = 3    # energy detected, no frame lock

    @property
    def has_frame(self) -> bool:
        return self is not RecordKind.PHY_ERROR


class _RecordFields(NamedTuple):
    radio_id: int
    timestamp_us: int            # local clock, integer microseconds
    kind: RecordKind
    channel: int
    rate_mbps: float
    rssi_dbm: float
    frame_len: int               # full on-air length, bytes
    fcs: int                     # FCS field as captured (32 bits)
    snap: bytes                  # frame bytes, truncated to the snap length
    duration_us: int             # airtime occupied by this event
    truth_txid: int = 0          # simulator oracle only — never read by Jigsaw


class TraceRecord(_RecordFields):
    """One captured physical event at one radio.

    An immutable tuple-backed value: no ``__dict__``, the size of a
    plain eleven-tuple.  The constructor validates; pickling and
    ``copy.copy`` rebuild through it (``__getnewargs__`` →
    ``__new__``), and so does :meth:`_replace`.  The only way around it
    is ``tuple.__new__(TraceRecord, ...)`` / ``_make``, which
    :meth:`FramedRun.decode` uses on records the vectorized validators
    have already accepted and the ``record-constructor`` lint rule
    forbids everywhere else.
    """

    __slots__ = ()

    def __new__(
        cls,
        radio_id: int,
        timestamp_us: int,
        kind: RecordKind,
        channel: int,
        rate_mbps: float,
        rssi_dbm: float,
        frame_len: int,
        fcs: int,
        snap: bytes,
        duration_us: int,
        truth_txid: int = 0,
    ) -> "TraceRecord":
        if len(snap) > CAPTURE_SNAP_BYTES + 64:
            raise ValueError("snap exceeds capture limit")
        if kind is RecordKind.PHY_ERROR and snap:
            raise ValueError("PHY error records carry no frame bytes")
        return tuple.__new__(
            cls,
            (
                radio_id,
                timestamp_us,
                kind,
                channel,
                rate_mbps,
                rssi_dbm,
                frame_len,
                fcs,
                snap,
                duration_us,
                truth_txid,
            ),
        )

    def _replace(self, **changes: Any) -> "TraceRecord":
        """A copy with ``changes`` applied, through the validating
        constructor (the inherited one goes through ``_make``)."""
        return TraceRecord(**{**self._asdict(), **changes})

    @property
    def is_valid_frame(self) -> bool:
        return self.kind is RecordKind.VALID


_HEADER = struct.Struct("<HqBBHhHIIHq")
# radio_id, timestamp, kind, channel, rate*10, rssi, frame_len, fcs,
# reserved(truth high bits live in the trailing q), snap_len, truth_txid

#: Valid ``kind`` byte values — the first thing corruption tends to break.
_VALID_KINDS = frozenset(kind.value for kind in RecordKind)

#: Plausibility bounds for :func:`probe_record_header`.  The snap bound is
#: the :class:`TraceRecord` constructor's own limit; frame length and rate
#: are generous envelopes over anything 802.11 can put on the air.
_MAX_PLAUSIBLE_SNAP = CAPTURE_SNAP_BYTES + 64
_MAX_PLAUSIBLE_FRAME_LEN = 8192
_MAX_PLAUSIBLE_RATE_X10 = 6000


class SidecarBound:
    """What a trace's index sidecar says its radio wrote.

    The writer records the local-time span ``[first_us, last_us]`` and
    the set of channels its records carry.  Tolerant decoding rejects a
    header outside either, so damaged bytes that happen to frame as a
    structurally plausible record — stamped ~1e16 us on channel 0, say —
    cannot enter the trace.  A ``None`` field imposes no bound.
    """

    __slots__ = ("first_us", "last_us", "channels", "_channel_ok")

    def __init__(
        self,
        first_us: Optional[int],
        last_us: Optional[int],
        channels: Optional[Iterable[int]],
    ) -> None:
        self.first_us = first_us
        self.last_us = last_us
        self.channels = None if channels is None else frozenset(channels)
        self._channel_ok: Any = None
        if self.channels is not None:
            # Channel is one header byte: a 256-entry lookup table.
            self._channel_ok = _np.zeros(256, dtype=bool)
            self._channel_ok[[c for c in self.channels if 0 <= c < 256]] = True

    def admits(self, timestamp_us: int, channel: int) -> bool:
        """Whether one header lies inside the bound."""
        if self.first_us is not None and timestamp_us < self.first_us:
            return False
        if self.last_us is not None and timestamp_us > self.last_us:
            return False
        return self.channels is None or channel in self.channels

    def admit_mask(self, headers: Any) -> Any:
        """:meth:`admits` over a structured header array."""
        ts = headers["timestamp_us"]
        ok = _np.ones(len(headers), dtype=bool)
        if self.first_us is not None:
            ok &= ts >= self.first_us
        if self.last_us is not None:
            ok &= ts <= self.last_us
        if self._channel_ok is not None:
            ok &= self._channel_ok[headers["channel"]]
        return ok


def probe_record_header(
    raw: bytes,
    offset: int = 0,
    min_timestamp_us: Optional[int] = None,
    bound: Optional[SidecarBound] = None,
) -> bool:
    """Cheap plausibility check: could a record header start at ``offset``?

    Used by the tolerant decoder to detect in-place corruption before
    trusting a header's ``snap_len`` framing, and to resynchronize to the
    next record boundary after damage.  The checks are structural (valid
    ``kind``, bounded snap/frame/rate fields, PHY errors carry no snap)
    plus local-time monotonicity when ``min_timestamp_us`` is given —
    capture files are written in local-time order, so a boundary whose
    timestamp runs backwards is a mis-framed candidate, not a record —
    plus the sidecar's span and channels when ``bound`` is given.

    Returns ``False`` when fewer than a full header's bytes are available.
    """
    if len(raw) - offset < _HEADER.size:
        return False
    (
        _radio_id,
        timestamp,
        kind,
        channel,
        rate_x10,
        _rssi,
        frame_len,
        _fcs,
        _duration,
        snap_len,
        _truth,
    ) = _HEADER.unpack_from(raw, offset)
    if kind not in _VALID_KINDS:
        return False
    if snap_len > _MAX_PLAUSIBLE_SNAP:
        return False
    if kind == RecordKind.PHY_ERROR.value and snap_len:
        return False
    if frame_len > _MAX_PLAUSIBLE_FRAME_LEN:
        return False
    if rate_x10 > _MAX_PLAUSIBLE_RATE_X10:
        return False
    if min_timestamp_us is not None and timestamp < min_timestamp_us:
        return False
    return bound is None or bound.admits(timestamp, channel)


def header_timestamp_us(raw: bytes, offset: int = 0) -> int:
    """The local timestamp of the header at ``offset`` (caller-validated)."""
    return _HEADER.unpack_from(raw, offset)[1]


def record_to_bytes(record: TraceRecord) -> bytes:
    header = _HEADER.pack(
        record.radio_id,
        record.timestamp_us,
        record.kind.value,
        record.channel,
        int(round(record.rate_mbps * 10)),
        int(round(record.rssi_dbm)),
        record.frame_len,
        record.fcs,
        record.duration_us,
        len(record.snap),
        record.truth_txid,
    )
    return header + record.snap


def record_span(raw: bytes, offset: int = 0) -> Optional[int]:
    """Total encoded size of the record at ``offset``, or ``None``.

    Returns ``None`` when fewer than a full header's bytes are available —
    the streaming reader's signal to fetch another chunk before deciding
    whether the record is complete.
    """
    if len(raw) - offset < _HEADER.size:
        return None
    snap_len = _HEADER.unpack_from(raw, offset)[9]
    return _HEADER.size + snap_len


def record_from_bytes(raw: bytes, offset: int = 0) -> Tuple[TraceRecord, int]:
    """Decode one record; returns ``(record, next_offset)``."""
    if len(raw) - offset < _HEADER.size:
        raise ValueError("truncated record header")
    (
        radio_id,
        timestamp,
        kind,
        channel,
        rate_x10,
        rssi,
        frame_len,
        fcs,
        duration,
        snap_len,
        truth_txid,
    ) = _HEADER.unpack_from(raw, offset)
    start = offset + _HEADER.size
    end = start + snap_len
    if len(raw) < end:
        raise ValueError("truncated record payload")
    record = TraceRecord(
        radio_id=radio_id,
        timestamp_us=timestamp,
        kind=RecordKind(kind),
        channel=channel,
        rate_mbps=rate_x10 / 10.0,
        rssi_dbm=float(rssi),
        frame_len=frame_len,
        fcs=fcs,
        snap=raw[start:end],
        duration_us=duration,
        truth_txid=truth_txid,
    )
    return record, end


# --- batch-vectorized decode -------------------------------------------------
#
# The scalar decoder above costs one 11-field struct unpack, one enum
# call and one validating ``TraceRecord.__new__`` per record.  The batch
# path amortizes all three: headers for a whole framed run are gathered
# into one numpy structured array and validated with vectorized
# predicates (``strict_violation`` / ``plausible_prefix`` — the same
# checks the constructor makes); only then are the accepted records
# built, column-wise, by ``tuple.__new__`` mapped at C speed over the
# zipped columns.  Both decoders return the same type with equal
# ``==`` / ``hash`` / pickle bytes.

#: Struct reading just ``snap_len``, for the cheap framing hop.
_SNAP_LEN_STRUCT = struct.Struct("<H")

#: Byte offset of ``snap_len`` inside the packed header.
_SNAP_LEN_OFFSET = struct.calcsize("<HqBBHhHII")

_PHY_VALUE = RecordKind.PHY_ERROR.value
_VALID_VALUE = RecordKind.VALID.value
_CORRUPT_VALUE = RecordKind.CORRUPT.value

#: ``kind`` byte -> enum member; a dict lookup is ~15x cheaper than
#: calling ``RecordKind(value)`` in the construction loop.
_KIND_BY_VALUE: Dict[int, RecordKind] = {k.value: k for k in RecordKind}


class _CodeTable(Dict[int, float]):
    """Header code -> field value, each value built once, on first
    lookup, by ``convert``; read through ``map(table.__getitem__, codes)``
    so a hit costs one C-level dict probe."""

    __slots__ = ("convert",)

    def __init__(self, convert: Callable[[int], float]) -> None:
        super().__init__()
        self.convert = convert

    def __missing__(self, code: int) -> float:
        value = self[code] = self.convert(code)
        return value


class ValueTables:
    """One read's field values, each kept once however many records carry it.

    Every radio in range captures a transmission, so its records at
    different radios carry equal frame bytes, FCS, airtime and truth id,
    and the rate and RSSI codes of a whole read take a few hundred
    values.  :meth:`FramedRun.decode` hands out the table's object for a
    value it has seen instead of a fresh copy, so a run that keeps every
    decoded record pays for each distinct value once.  Record values are
    unchanged; only duplicate objects go.

    Each field has its own table, so no two fields of one record share
    an object and a record pickles to the scalar decoder's bytes.  Frame
    bytes and FCS are shared for VALID records only: a damaged capture's
    are unique, and a PHY error carries no frame.  Frame lengths and
    timestamps are not shared: a table of the former costs more than it
    saves, and each radio clock makes the latter unique.

    A set lives as long as the read that made it — one
    :func:`~repro.jtrace.io.open_trace_streams` call, shared by every
    stream it opens, or one lone stream — and dies with its streams.
    """

    __slots__ = ("rate", "rssi", "duration", "truth", "snap", "fcs")

    def __init__(self) -> None:
        self.rate = _CodeTable(lambda rate_x10: rate_x10 / 10.0)
        self.rssi = _CodeTable(float)
        self.duration: Dict[int, int] = {}
        self.truth: Dict[int, int] = {}
        self.snap: Dict[bytes, bytes] = {}
        self.fcs: Dict[int, int] = {}


#: Structured view of ``_HEADER``: same field order, same packed
#: little-endian layout, one name per struct code (itemsize must equal
#: ``_HEADER.size``; the devtools struct rule cross-checks).
_HEADER_DTYPE = _np.dtype(
    [
        ("radio_id", "<u2"),
        ("timestamp_us", "<i8"),
        ("kind", "u1"),
        ("channel", "u1"),
        ("rate_x10", "<u2"),
        ("rssi", "<i2"),
        ("frame_len", "<u2"),
        ("fcs", "<u4"),
        ("duration_us", "<u4"),
        ("snap_len", "<u2"),
        ("truth_txid", "<i8"),
    ]
)
if _HEADER_DTYPE.itemsize != _HEADER.size:  # pragma: no cover
    raise AssertionError("_HEADER_DTYPE drifted from the _HEADER layout")
_HEADER_RANGE = _np.arange(_HEADER.size, dtype=_np.intp)
_EMPTY_HEADERS = _np.empty(0, dtype=_HEADER_DTYPE)
_KIND_OK_TABLE = _np.zeros(256, dtype=bool)
_KIND_OK_TABLE[sorted(_VALID_KINDS)] = True


@dataclass
class RecordBatch:
    """A run of consecutively decoded records from one stream.

    ``ts_sorted`` says whether timestamps are non-decreasing *within*
    the batch (computed vectorized during decode), so the streaming tee
    can validate local-time order per batch plus one boundary
    comparison instead of rescanning every record.
    """

    records: List[TraceRecord]
    ts_sorted: bool

    def __len__(self) -> int:
        return len(self.records)

    @property
    def first_timestamp_us(self) -> Optional[int]:
        return self.records[0].timestamp_us if self.records else None

    @property
    def last_timestamp_us(self) -> Optional[int]:
        return self.records[-1].timestamp_us if self.records else None


def batch_from_records(records: List[TraceRecord]) -> RecordBatch:
    """Wrap scalar-decoded records in a batch (order scanned once here)."""
    ts_sorted = all(
        a.timestamp_us <= b.timestamp_us for a, b in zip(records, records[1:])
    )
    return RecordBatch(records, ts_sorted)


class FramedRun:
    """Complete records framed from a decode buffer, headers gathered.

    Framing trusts each header's ``snap_len`` hop (the strict decoder's
    contract; the tolerant path validates before decoding).  The run
    stops at the first record whose span overruns the buffer — the
    partial tail the streaming reader completes with its next chunk.
    """

    __slots__ = ("buffer", "offsets", "next_offset", "_headers")

    buffer: bytes
    offsets: List[int]
    next_offset: int
    _headers: Any

    def __init__(self, buffer: bytes, offset: int = 0) -> None:
        self.buffer = buffer
        offsets: List[int] = []
        append = offsets.append
        unpack = _SNAP_LEN_STRUCT.unpack_from
        header = _HEADER.size
        snap_off = _SNAP_LEN_OFFSET
        n = len(buffer)
        while offset + header <= n:
            end = offset + header + unpack(buffer, offset + snap_off)[0]
            if end > n:
                break
            append(offset)
            offset = end
        self.offsets = offsets
        self.next_offset = offset
        if offsets:
            base = _np.frombuffer(buffer, dtype=_np.uint8)
            idx = _np.asarray(offsets, dtype=_np.intp)[:, None] + _HEADER_RANGE
            self._headers = base.take(idx.ravel()).view(_HEADER_DTYPE)
        else:
            self._headers = _EMPTY_HEADERS

    def __len__(self) -> int:
        return len(self.offsets)

    def strict_violation(self) -> Optional[int]:
        """Index of the first record the strict constructor would reject.

        Mirrors exactly what :func:`record_from_bytes` raises on — an
        invalid ``kind`` byte or a :class:`TraceRecord` post-init
        failure — so the strict batch path can re-decode that one
        record scalar-wise and surface the identical exception.
        """
        h = self._headers
        kind = h["kind"]
        snap = h["snap_len"]
        bad = ~_KIND_OK_TABLE[kind]
        bad |= snap > _MAX_PLAUSIBLE_SNAP
        bad |= (kind == _PHY_VALUE) & (snap != 0)
        if not bad.any():
            return None
        return int(bad.argmax())

    def plausible_prefix(
        self,
        min_timestamp_us: Optional[int],
        bound: Optional[SidecarBound] = None,
    ) -> int:
        """How many leading records pass :func:`probe_record_header`.

        The same predicate set the tolerant scalar decoder probes with —
        structural bounds, local-time monotonicity against the previous
        record (``min_timestamp_us`` seeds the chain) and the sidecar
        ``bound`` — so the batch fast path accepts byte-for-byte what the
        scalar path accepts, and hands over at the same damaged offset.
        """
        h = self._headers
        if not len(h):
            return 0
        kind = h["kind"]
        snap = h["snap_len"]
        ok = _KIND_OK_TABLE[kind].copy()
        ok &= snap <= _MAX_PLAUSIBLE_SNAP
        ok &= ~((kind == _PHY_VALUE) & (snap != 0))
        ok &= h["frame_len"] <= _MAX_PLAUSIBLE_FRAME_LEN
        ok &= h["rate_x10"] <= _MAX_PLAUSIBLE_RATE_X10
        if bound is not None:
            ok &= bound.admit_mask(h)
        ts = h["timestamp_us"]
        if min_timestamp_us is not None and ts[0] < min_timestamp_us:
            ok[0] = False
        if len(ok) > 1:
            ok[1:] &= ts[1:] >= ts[:-1]
        if ok.all():
            return len(ok)
        return int((~ok).argmax())

    def decode(
        self, count: Optional[int] = None, values: Optional[ValueTables] = None
    ) -> RecordBatch:
        """Materialize the first ``count`` framed records (all by default).

        Repeated field values come out of ``values`` (a fresh set when
        none is given), so equal values across the read are one object.

        Builds through the unvalidated tuple constructor: call only on
        records :meth:`strict_violation` / :meth:`plausible_prefix` have
        accepted.
        """
        offsets = self.offsets if count is None else self.offsets[:count]
        n = len(offsets)
        if n == 0:
            return RecordBatch([], True)
        if values is None:
            values = ValueTables()
        h = self._headers if count is None else self._headers[:count]
        ts_col = h["timestamp_us"]
        ts_sorted = bool(_np.all(ts_col[1:] >= ts_col[:-1])) if n > 1 else True
        buffer = self.buffer
        starts = _np.asarray(offsets, dtype=_np.intp) + _HEADER.size
        ends = starts + h["snap_len"]
        # Frame bytes by kind: a PHY error's are ``b""`` (the validators
        # saw to it), a damaged capture's are its own, and a VALID
        # capture's are the read's shared copy.
        kind = h["kind"]
        snaps = [b""] * n
        fcs = h["fcs"].tolist()
        share_snap = values.snap.setdefault
        share_fcs = values.fcs.setdefault
        valid = _np.flatnonzero(kind == _VALID_VALUE)
        for i, a, b in zip(
            valid.tolist(), starts[valid].tolist(), ends[valid].tolist()
        ):
            snap = buffer[a:b]
            snaps[i] = share_snap(snap, snap)
            check = fcs[i]
            fcs[i] = share_fcs(check, check)
        damaged = _np.flatnonzero(kind == _CORRUPT_VALUE)
        for i, a, b in zip(
            damaged.tolist(), starts[damaged].tolist(), ends[damaged].tolist()
        ):
            snaps[i] = buffer[a:b]
        durations = h["duration_us"].tolist()
        truths = h["truth_txid"].tolist()
        columns = zip(
            h["radio_id"].tolist(),
            ts_col.tolist(),
            map(_KIND_BY_VALUE.__getitem__, kind.tolist()),
            h["channel"].tolist(),
            map(values.rate.__getitem__, h["rate_x10"].tolist()),
            map(values.rssi.__getitem__, h["rssi"].tolist()),
            h["frame_len"].tolist(),
            fcs,
            snaps,
            map(values.duration.setdefault, durations, durations),
            map(values.truth.setdefault, truths, truths),
        )
        records = list(map(tuple.__new__, repeat(TraceRecord), columns))
        return RecordBatch(records, ts_sorted)
