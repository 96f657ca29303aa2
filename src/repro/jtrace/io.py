"""Trace files: per-radio record streams with compression and an index.

jigdump "compresses them using the LZO algorithm to minimize storage and
I/O overhead ... and generates a metadata index record to facilitate
subsequent accesses.  Data and metadata are written to separate files"
(Section 3.3).  We use gzip (LZO is not in the stdlib; the role — cheap
stream compression — is identical), at zlib's default level and with a
zero header timestamp so the same records always write the same bytes,
and a JSON sidecar index, written by
:func:`write_sidecar` for clean and damaged captures alike: the radio's
identity, its record count, its local-time range and the channels its
records carry.

Reading is streaming: :func:`iter_record_batches` context-manages the file
handle and decodes chunk by chunk in constant memory, so day-long traces
never materialize a decompressed byte blob; :func:`open_trace_stream`
wraps it in a lazily read :class:`RadioTrace`, and :func:`read_trace`
drains one.  The decoder's memory is constant; the trace's is not: a
:class:`RadioTrace` keeps every record it decoded in its buffer until
it is dropped, so a run over file-backed traces holds each record it
read.  To keep that per-record cost low, the batch decoder hands out
repeated field values from the read's
:class:`~repro.jtrace.records.ValueTables` — one set per
:func:`open_trace_streams` call — instead of building a copy per record.

Decoding is fault-tolerant on request.  Real day-scale captures get
damaged — a radio loses power mid-record, a disk sector corrupts, a gzip
stream is cut — and a ~190-radio merge must not abort because one vantage
point is imperfect.  Every reader accepts an :class:`ErrorPolicy`:

* ``strict`` (default) — any damage raises ``ValueError``, exactly the
  historical behavior;
* ``skip`` — corrupt or truncated records are skipped: the decoder
  resynchronizes to the next plausible record boundary (structural header
  probe, bounded by the sidecar's time range and channels, plus a
  successor-header confirmation), keeps decoding, and counts what it
  lost in a :class:`DecodeHealth`;
* ``drop-trace`` — a damaged trace contributes nothing: the first decode
  error discards the whole trace (counted in the health), so one rotten
  capture cannot pollute a run that wants only pristine inputs.

Clean files decode byte-identically under every policy.
"""

from __future__ import annotations

import enum
import gzip
import json
import zlib
from bisect import bisect_right
from dataclasses import dataclass, fields
from itertools import islice
from operator import attrgetter, itemgetter, le
from pathlib import Path
from typing import FrozenSet, Iterable, Iterator, List, Optional, Tuple, Union

from .records import (
    FramedRun,
    RecordBatch,
    SidecarBound,
    TraceRecord,
    ValueTables,
    _HEADER,
    batch_from_records,
    header_timestamp_us,
    probe_record_header,
    record_from_bytes,
    record_span,
    record_to_bytes,
)

#: zlib level every trace file is written at: the default, since level 9
#: costs ~10x the time for a ~2 % smaller file.
COMPRESSION_LEVEL = 6

#: Chunk size for streaming decompression (1 MiB of decompressed bytes).
_READ_CHUNK_BYTES = 1 << 20

_TIMESTAMP = itemgetter(TraceRecord._fields.index("timestamp_us"))


def _locally_ordered(records: List[TraceRecord]) -> bool:
    """Whether ``records`` are in local-time order (a C-speed walk)."""
    stamps = list(map(_TIMESTAMP, records))
    return all(map(le, stamps, islice(stamps, 1, None)))


class ErrorPolicy(str, enum.Enum):
    """What a trace reader does when it meets damaged bytes."""

    STRICT = "strict"
    SKIP = "skip"
    DROP_TRACE = "drop-trace"


#: Accepted spellings for reader ``policy`` arguments.
PolicyLike = Union[ErrorPolicy, str]


@dataclass
class DecodeHealth:
    """What tolerant decoding observed (and lost) on one or more traces.

    ``records_skipped`` counts *resynchronization events*: each is one
    stretch of damaged bytes hiding at least one record.  ``bytes_resynced``
    is the exact number of bytes scanned past while hunting for the next
    record boundary, so the two together bound the loss from both sides.
    """

    records_decoded: int = 0
    records_skipped: int = 0
    bytes_resynced: int = 0
    truncated_tails: int = 0
    truncated_tail_bytes: int = 0
    stream_errors: int = 0
    traces_dropped: int = 0

    def merge(self, other: "DecodeHealth") -> None:
        """Fold another trace's counters into this aggregate."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    @property
    def clean(self) -> bool:
        """True when decoding saw no damage at all."""
        return not (
            self.records_skipped
            or self.bytes_resynced
            or self.truncated_tails
            or self.stream_errors
            or self.traces_dropped
        )

    def summary(self) -> str:
        return (
            f"decoded={self.records_decoded} skipped={self.records_skipped} "
            f"resynced_bytes={self.bytes_resynced} "
            f"truncated_tails={self.truncated_tails} "
            f"tail_bytes={self.truncated_tail_bytes} "
            f"stream_errors={self.stream_errors} "
            f"dropped_traces={self.traces_dropped}"
        )


def _meta_path(data_path: Path) -> Path:
    """The JSON index sidecar belonging to a trace data file."""
    return data_path.with_name(data_path.name.replace(".jtr.gz", ".meta.json"))


def _read_meta(data_path: Path) -> dict:
    return json.loads(_meta_path(data_path).read_text())


class RadioTrace:
    """All records captured by one radio, in local-time order.

    A record buffer plus, optionally, a one-shot ``source`` of
    :class:`RecordBatch` — the decoder of :func:`iter_record_batches`
    streaming off a compressed file, or a simulation handing over each
    slice it ran.  A trace without a source holds every record in its
    buffer.  A trace with one decodes lazily, and only once: every batch
    pulled lands in the buffer, so early consumers — the bootstrap
    prepass examining the first second — read just the prefix they
    need, and later consumers replay that buffer before continuing the
    same underlying read.

    * :meth:`buffered_until` — pull (and buffer) batches up to a
      local-time limit; the bootstrap window feed, including auto-widen
      rounds, costs only the prefix decode.
    * :meth:`ensure_index` — pull until one index is buffered; the
      merge's cursor.
    * ``records`` — drain the source and return the full list.

    Local-time ordering of a source is validated as each batch lands
    (its own ``ts_sorted`` flag plus one boundary comparison), so
    :meth:`sorted_by_local_time` has nothing left to check.  Disorder
    encountered *before* any prefix has been handed out downgrades to a
    full drain + sort (the same silent semantics
    ``sorted_by_local_time`` gives a trace without a source).  Disorder
    discovered *after* a consumer has gated on a prefix — a record
    sorting into a window the bootstrap already examined — raises
    ``ValueError`` instead: the single-read prepass cannot be
    retroactively corrected, and a loud failure beats silently
    diverging from the materialized path.  Real capture files are
    written in local-time order; unordered inputs should go through
    :func:`read_trace` / :meth:`sorted_by_local_time`.

    ``decode_health`` fills as a file source decodes (fully accurate
    once drained); ``channel_set`` is the channels the writer's index
    sidecar declared (``None`` when unknown), which lets channel
    partitioning run off the metadata instead of forcing a full decode;
    ``building_id`` is the locality stamp for hierarchical sharding —
    the building (or pod group) the radio was deployed in, ``None``
    meaning unknown (such traces partition by channel only).
    """

    def __init__(
        self,
        radio_id: int,
        channel: int,
        records: Optional[List[TraceRecord]] = None,
        building_id: Optional[int] = None,
        *,
        source: Optional[Iterable[RecordBatch]] = None,
        decode_health: Optional[DecodeHealth] = None,
        channel_set: Optional[FrozenSet[int]] = None,
    ) -> None:
        self.radio_id = radio_id
        self.channel = channel
        self.building_id = building_id
        self.channel_set = channel_set
        self.decode_health = (
            decode_health if decode_health is not None else DecodeHealth()
        )
        self._records: List[TraceRecord] = (
            records if records is not None else []
        )
        self._batches: Optional[Iterator[RecordBatch]] = (
            iter(source) if source is not None else None
        )
        self._ordered = True
        self._prefix_consumed = False
        #: What the source raised, re-raised on every later pull: a
        #: generator that raised reads as exhausted afterwards, and a
        #: ``strict`` stream must not answer its next caller with a
        #: silently truncated trace.
        self._failure: Optional[Exception] = None

    def _pull_some(self) -> int:
        """Extend the buffer by one non-empty batch from the source;
        returns records gained (0 at end of stream, or with no source).

        Order is validated per batch plus one boundary comparison
        instead of per record.
        """
        if self._failure is not None:
            raise self._failure
        if self._batches is None:
            return 0
        while True:
            try:
                batch = next(self._batches, None)
            except Exception as exc:
                self._failure = exc
                raise
            if batch is None:
                self._batches = None
                return 0
            records = batch.records
            if records:
                break
        buffer = self._records
        if not batch.ts_sorted or (
            buffer and records[0].timestamp_us < buffer[-1].timestamp_us
        ):
            self._ordered = False
        buffer.extend(records)
        return len(records)

    def ensure_index(self, index: int) -> bool:
        """Pull until the buffer holds ``index``; False at end of stream.

        The merge consumes traces through this cursor-style accessor so
        decoding stays incremental — the buffer only ever extends, so
        indices handed out earlier remain valid.  Consuming by index
        gates on local-time order exactly like a window prefix does:
        records already fed to the merge cannot be re-sorted, so
        disorder discovered here raises instead of silently sorting.
        """
        self._prefix_consumed = True
        buffer = self._records
        while index >= len(buffer):
            if self._pull_some() == 0:
                return False
            if not self._ordered:
                raise ValueError(self._unordered_message())
        return True

    def _unordered_message(self) -> str:
        return (
            f"trace for radio {self.radio_id} is not in "
            "local-time order and its window prefix was already "
            "consumed by the single-read bootstrap; materialize "
            "it with read_trace()/sorted_by_local_time() instead"
        )

    def buffered_until(
        self, limit_us: int, lo: int = 0
    ) -> Tuple[List[TraceRecord], int]:
        """Records with ``timestamp_us <= limit_us``, decoding on demand.

        Returns ``(buffer, hi)`` where ``buffer[:hi]`` is the prefix
        within the limit (``lo`` is a lower bound on ``hi``, the answer
        to an earlier, smaller limit); decodes at most one batch beyond
        the limit.
        """
        buffer = self._records
        while self._ordered and (
            not buffer or buffer[-1].timestamp_us <= limit_us
        ):
            if self._pull_some() == 0:
                break
        if not self._ordered:
            buffer = self.records
        self._prefix_consumed = True
        if buffer and buffer[-1].timestamp_us <= limit_us:
            return buffer, len(buffer)
        return buffer, bisect_right(buffer, limit_us, lo=lo, key=_TIMESTAMP)

    @property
    def replay_buffer(self) -> List[TraceRecord]:
        """The decoded-so-far prefix, extended in place by the cursor.

        Callers pairing this with :meth:`ensure_index` must treat it as
        append-only: the same list object is returned every time, so an
        index proven present once stays valid for the trace's lifetime.
        """
        return self._records

    @property
    def records(self) -> List[TraceRecord]:
        """Drain the source (if any is left) and return every record."""
        while self._pull_some():
            continue  # ordering is validated per batch as it lands
        if not self._ordered:
            if self._prefix_consumed:
                # A window prefix was already handed to the bootstrap,
                # gated on the ordering this record violates; sorting now
                # would silently shift records into or out of windows the
                # prepass already examined.
                raise ValueError(self._unordered_message())
            self._records.sort(key=_TIMESTAMP)
            self._ordered = True
        return self._records

    @records.setter
    def records(self, records: List[TraceRecord]) -> None:
        self._records = records

    def append(self, record: TraceRecord) -> None:
        self._records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    @property
    def first_timestamp_us(self) -> Optional[int]:
        if not self._records:
            self._pull_some()
        return self._records[0].timestamp_us if self._records else None

    @property
    def last_timestamp_us(self) -> Optional[int]:
        records = self.records
        return records[-1].timestamp_us if records else None

    def sorted_by_local_time(self) -> "RadioTrace":
        """This trace in local-timestamp order.

        A trace still reading its source returns itself without
        draining: order is validated as the source is read.  Otherwise
        capture order and local-time order coincide for a monotonic
        clock, but tests construct traces by hand; the merge pipeline
        requires local-time order.  When the records are already
        ordered — the common case for real captures — the trace itself
        is returned, so building-scale pipelines stop copying every
        record list; callers that mutate the result must therefore copy
        explicitly.  A sorted copy keeps the trace's ``building_id``,
        ``decode_health`` and ``channel_set``.
        """
        records = self._records
        if self._batches is not None or _locally_ordered(records):
            return self
        return RadioTrace(
            self.radio_id,
            self.channel,
            sorted(records, key=_TIMESTAMP),
            self.building_id,
            decode_health=self.decode_health,
            channel_set=self.channel_set,
        )

    def close(self) -> None:
        """Release the source — a partially read file's descriptor.

        Idempotent.  The buffer stays readable: closing the source
        generator only ends the read, so a closed trace still serves
        every record it already decoded.
        """
        closer = getattr(self._batches, "close", None)
        if closer is not None:
            closer()
        self._batches = None

    def __enter__(self) -> "RadioTrace":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def open_trace_stream(
    data_path: Path,
    policy: PolicyLike = ErrorPolicy.STRICT,
    *,
    vectorized: bool = True,
    chunk_bytes: int = _READ_CHUNK_BYTES,
) -> RadioTrace:
    """Open one radio's trace for lazy, single-read consumption.

    Identity (radio id, channel, locality, channels) comes from the
    metadata sidecar; records decode on demand into the trace's buffer,
    so a pipeline run reads the compressed file exactly once — the
    bootstrap prepass pulls only its examination window before
    unification picks up the buffer.

    ``vectorized`` selects the decode engine (``False`` = the scalar
    reference); either way decoding runs inline on the consuming
    thread, one chunk per pull.

    Damage handling follows ``policy``; what tolerant decoding skipped is
    tallied on the trace's ``decode_health`` as the source is consumed
    (fully accurate once the trace is drained).  ``strict`` also holds
    the drained stream to the sidecar's record count, raising
    ``ValueError("index mismatch ...")`` when the stream is exhausted.
    ``drop-trace`` decodes eagerly — a lazily-dropped trace would vanish
    halfway through the merge — so a damaged file becomes an empty
    trace up front and the radio is simply absent from the run.

    The stream has its own :class:`~repro.jtrace.records.ValueTables`;
    the streams of one :func:`open_trace_streams` call share one set.
    """
    return _open_stream(
        Path(data_path), ErrorPolicy(policy), vectorized, chunk_bytes,
        ValueTables(),
    )


def _open_stream(
    data_path: Path,
    policy: ErrorPolicy,
    vectorized: bool,
    chunk_bytes: int,
    values: ValueTables,
) -> RadioTrace:
    """:func:`open_trace_stream`, decoding into the read's ``values``."""
    meta = _read_meta(data_path)
    decode_health = DecodeHealth()
    channels = meta.get("channels")
    source: Iterable[RecordBatch] = iter_record_batches(
        data_path,
        chunk_bytes=chunk_bytes,
        policy=policy,
        health=decode_health,
        vectorized=vectorized,
        values=values,
    )
    if policy is ErrorPolicy.STRICT:
        source = _index_checked(source, decode_health, meta["records"])
    elif policy is ErrorPolicy.DROP_TRACE:
        try:
            source = list(source)
        except _TraceDamage:
            source = []
            decode_health.traces_dropped += 1
    return RadioTrace(
        meta["radio_id"],
        meta["channel"],
        building_id=meta.get("building_id"),
        source=source,
        decode_health=decode_health,
        channel_set=frozenset(channels) if channels is not None else None,
    )


def _index_checked(
    batches: Iterator[RecordBatch], health: DecodeHealth, indexed: int
) -> Iterator[RecordBatch]:
    """``batches``, then the strict cross-check of the decoded count
    against the ``indexed`` count the sidecar declares."""
    yield from batches
    if health.records_decoded != indexed:
        raise ValueError(
            f"index mismatch: {health.records_decoded} records vs "
            f"{indexed} indexed"
        )


def open_trace_streams(
    directory: Path,
    policy: PolicyLike = ErrorPolicy.STRICT,
    *,
    vectorized: bool = True,
    chunk_bytes: int = _READ_CHUNK_BYTES,
) -> List[RadioTrace]:
    """Lazily open every trace in a directory, in radio-id order.

    The order is the sidecars' ``radio_id``, not the file names': a
    four-digit name sorts radio 10000 before radio 1001.  Every stream
    decodes into one :class:`~repro.jtrace.records.ValueTables`, so a
    value many radios captured is one object across the whole read.
    """
    policy = ErrorPolicy(policy)
    values = ValueTables()
    traces = [
        _open_stream(path, policy, vectorized, chunk_bytes, values)
        for path in sorted(Path(directory).glob("radio_*.jtr.gz"))
    ]
    traces.sort(key=attrgetter("radio_id"))
    return traces


def write_trace(trace: RadioTrace, directory: Path) -> Path:
    """Write one radio's trace (gzip data + JSON metadata sidecar)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    data_path = directory / f"radio_{trace.radio_id:04d}.jtr.gz"
    blob = b"".join([record_to_bytes(record) for record in trace.records])
    data_path.write_bytes(compress_trace(blob))
    write_sidecar(trace, data_path)
    return data_path


def compress_trace(blob: bytes) -> bytes:
    """The gzip file body of encoded records, the same bytes every time."""
    return gzip.compress(blob, compresslevel=COMPRESSION_LEVEL, mtime=0)


def write_sidecar(trace: RadioTrace, data_path: Path) -> None:
    """Write the JSON index sidecar describing ``trace`` next to its data.

    The one sidecar builder: :func:`write_trace` and the fault injector
    both call it, so a damaged capture's index describes what the radio
    believed it wrote in exactly the shape a clean one does.
    """
    records = trace.records
    meta = {
        "radio_id": trace.radio_id,
        "channel": trace.channel,
        # Locality stamp (absent/None on single-building captures): lets
        # the shard planner group file-backed traces by building from
        # the sidecar alone.
        "building_id": trace.building_id,
        "records": len(records),
        "first_timestamp_us": trace.first_timestamp_us,
        "last_timestamp_us": trace.last_timestamp_us,
        # Every channel any record was captured on: channel partitioning
        # groups file-backed traces from the sidecar alone, and tolerant
        # decoding rejects a header on any other channel.
        "channels": sorted({record.channel for record in records}),
    }
    _meta_path(data_path).write_text(json.dumps(meta, indent=1))


def _sidecar_bound(data_path: Path) -> Optional[SidecarBound]:
    """What the trace's sidecar says its radio wrote (the tolerant
    decoder's bound); a field the sidecar lacks stays open, and a data
    file without a sidecar is unbounded."""
    try:
        meta = _read_meta(data_path)
    except FileNotFoundError:
        return None
    return SidecarBound(
        meta.get("first_timestamp_us"),
        meta.get("last_timestamp_us"),
        meta.get("channels"),
    )


def _scan_boundary(
    buffer: bytes,
    offset: int,
    last_ts: Optional[int],
    at_eof: bool,
    bound: Optional[SidecarBound],
) -> Tuple[int, bool]:
    """Find the next plausible record boundary at or after ``offset``.

    Returns ``(position, confirmed)``.  ``confirmed`` means a structurally
    plausible record starts at ``position`` *and* is corroborated — its
    successor header also probes plausible, or the record ends exactly at
    a completed stream.  Unconfirmed means scanning must resume at
    ``position`` once more data arrives (bytes before it are definitively
    not boundaries).  Both headers must lie inside the sidecar ``bound``.
    """
    size = _HEADER.size
    n = len(buffer)
    p = offset
    while p + size <= n:
        if probe_record_header(buffer, p, last_ts, bound):
            span = record_span(buffer, p)
            end = p + span
            if end + size <= n:
                if probe_record_header(
                    buffer, end, header_timestamp_us(buffer, p), bound
                ):
                    return p, True
                # Mis-framed candidate (its successor is implausible):
                # keep scanning.
            elif at_eof:
                if end <= n:
                    return p, True
                # Candidate runs past the truncated tail: not a record.
            else:
                return p, False  # plausible, but needs more data to confirm
        p += 1
    return p, False


def _strict_chunks(data_path: Path, chunk_bytes: int) -> Iterator[bytes]:
    """Decompressed chunks via ``gzip``; damage raises ``ValueError``."""
    with gzip.open(data_path, "rb") as fh:
        while True:
            try:
                chunk = fh.read(chunk_bytes)
            except (EOFError, OSError, zlib.error) as exc:
                raise ValueError(
                    f"corrupt or truncated compressed stream in "
                    f"{data_path}: {exc}"
                ) from exc
            if not chunk:
                return
            yield chunk


def _tolerant_chunks(
    data_path: Path,
    chunk_bytes: int,
    policy: ErrorPolicy,
    health: DecodeHealth,
) -> Iterator[bytes]:
    """Decompressed chunks that salvage everything before stream damage.

    ``gzip.GzipFile.read`` discards whatever one call decompressed before
    hitting a truncation or CRC error, so the tolerant path drives
    ``zlib.decompressobj`` directly: every byte successfully inflated is
    yielded before the error is reported.  Damage counts one
    ``stream_errors`` (or drops the trace under ``drop-trace``) and ends
    the stream — the record-level decoder then treats what it has as a
    truncated capture.
    """
    obj = zlib.decompressobj(wbits=47)  # auto-detect gzip/zlib headers
    fed = False
    with open(data_path, "rb") as fh:
        while True:
            comp = fh.read(chunk_bytes)
            if not comp:
                break
            fed = True
            while comp:
                try:
                    out = obj.decompress(comp)
                except zlib.error as exc:
                    if policy is ErrorPolicy.DROP_TRACE:
                        raise _TraceDamage(data_path) from exc
                    health.stream_errors += 1
                    return
                if out:
                    yield out
                comp = b""
                if obj.eof and obj.unused_data:
                    # Concatenated gzip members: restart on the remainder.
                    comp = obj.unused_data
                    obj = zlib.decompressobj(wbits=47)
    tail = obj.flush()
    if tail:
        yield tail
    if fed and not obj.eof:
        # The file ended before the compressed stream did (capture cut).
        if policy is ErrorPolicy.DROP_TRACE:
            raise _TraceDamage(data_path)
        health.stream_errors += 1


def iter_record_batches(
    data_path: Path,
    chunk_bytes: int = _READ_CHUNK_BYTES,
    policy: PolicyLike = ErrorPolicy.STRICT,
    health: Optional[DecodeHealth] = None,
    vectorized: bool = True,
    *,
    values: Optional[ValueTables] = None,
) -> Iterator[RecordBatch]:
    """Stream-decode a compressed trace file as batches of records.

    The file handle is context-managed (no descriptor leak) and at most
    ``chunk_bytes`` of decompressed data plus one partial record is
    buffered at a time, so day-long traces decode in constant memory
    instead of materializing the whole decompressed stream.

    ``vectorized=True`` (the default) uses the batch engine: complete
    records are framed per chunk, their headers gathered into one
    structured array, validated with vectorized predicates, and
    materialized column-wise (see
    :class:`~repro.jtrace.records.FramedRun`).  ``vectorized=False``
    forces the scalar per-record engine (the reference path the parity
    suites compare against).  Both engines produce identical records,
    identical :class:`DecodeHealth` ledgers, and raise identical errors
    at identical stream positions.  The batch engine hands out repeated
    field values from ``values``, the read's
    :class:`~repro.jtrace.records.ValueTables` (a set of this stream's
    own when ``None``); the scalar engine, and the batch engine's
    record-at-a-time fallback at damaged boundaries, build every value
    afresh.

    ``policy`` selects damage handling (see :class:`ErrorPolicy`).  Under
    ``skip``, a corrupt record triggers resynchronization: the batch
    fast path hands over to the scalar prober at the damaged offset,
    the prober scans forward for the next byte offset at which a
    structurally plausible header starts *and* its successor header is
    also plausible (or the record ends a completed stream), counts the
    skipped bytes in ``health``, and the batch path re-enters at the
    confirmed boundary.  Tolerant decoding also holds every record to
    the trace's index sidecar (:class:`~repro.jtrace.records.SidecarBound`):
    a header stamped outside the radio's ``[first_timestamp_us,
    last_timestamp_us]`` or on a channel missing from its ``channels``
    is damage, however plausible its structure — random bytes that frame
    as a record would otherwise enter the trace (a sidecar that lacks a
    field imposes no bound on it).  A capture cut mid-record — radio power loss,
    or a gzip stream truncated before its end marker — yields every
    complete record and reports the partial tail via the health
    counters instead of raising mid-iteration.  ``drop-trace`` stops at
    the first damage and re-raises a sentinel the trace-level readers
    use to discard the whole trace.  Clean files decode identically
    under every policy.
    """
    policy = ErrorPolicy(policy)
    if health is None:
        health = DecodeHealth()
    data_path = Path(data_path)
    strict = policy is ErrorPolicy.STRICT
    if values is None:
        values = ValueTables()

    bound = None if strict else _sidecar_bound(data_path)
    if strict:
        chunk_iter: Iterator[bytes] = _strict_chunks(data_path, chunk_bytes)
    else:
        chunk_iter = _tolerant_chunks(data_path, chunk_bytes, policy, health)

    buffer = b""
    offset = 0
    last_ts: Optional[int] = None
    syncing = False
    at_eof = False
    while not at_eof:
        chunk = next(chunk_iter, b"")
        at_eof = not chunk
        buffer = buffer[offset:] + chunk
        offset = 0
        while True:
            if syncing:
                pos, confirmed = _scan_boundary(
                    buffer, offset, last_ts, at_eof, bound
                )
                health.bytes_resynced += pos - offset
                offset = pos
                if not confirmed:
                    break  # need more data (or: tail handled below)
                syncing = False
            if vectorized:
                # Batch fast path: frame every complete record, validate
                # vectorized, decode the clean prefix in one go.
                run = FramedRun(buffer, offset)
                total = len(run.offsets)
                if total:
                    if strict:
                        bad = run.strict_violation()
                    else:
                        prefix = run.plausible_prefix(last_ts, bound)
                        bad = None if prefix == total else prefix
                    count = total if bad is None else bad
                    if count:
                        batch = run.decode(count, values)
                        health.records_decoded += count
                        last_batch_ts = batch.last_timestamp_us
                        if last_batch_ts is not None:
                            last_ts = last_batch_ts
                        offset = (
                            run.offsets[count]
                            if count < total
                            else run.next_offset
                        )
                        yield batch
                    if bad is not None:
                        offset = run.offsets[bad]
                        if strict:
                            # Scalar re-decode of the rejected record so
                            # the exception matches the scalar engine's.
                            record_from_bytes(buffer, offset)
                            raise AssertionError(
                                "batch validation rejected a record the "
                                "scalar decoder accepts"
                            )
                        if policy is ErrorPolicy.DROP_TRACE:
                            raise _TraceDamage(data_path)
                        health.records_skipped += 1
                        syncing = True
                        continue
                if strict:
                    break  # every complete record framed; wait for data
            elif strict:
                span = record_span(buffer, offset)
                if span is None or offset + span > len(buffer):
                    break  # partial record: wait for the next chunk
                record, offset = record_from_bytes(buffer, offset)
                health.records_decoded += 1
                yield batch_from_records([record])
                continue
            # Tolerant remainder: probe before trusting the header
            # framing, so a corrupted snap_len cannot stall the stream,
            # and enforce local-time order (capture files are written in
            # order; a backwards timestamp is damage, and letting it
            # through would poison the single-read merge downstream).
            # On the batch path only damaged or incomplete bytes reach
            # this point — clean complete records were consumed above.
            if len(buffer) - offset < _HEADER.size:
                break  # partial header: wait for the next chunk
            if not probe_record_header(buffer, offset, last_ts, bound):
                if policy is ErrorPolicy.DROP_TRACE:
                    raise _TraceDamage(data_path)
                health.records_skipped += 1
                syncing = True
                continue
            span = record_span(buffer, offset)
            if span is None or offset + span > len(buffer):
                # Partial record: wait for the next chunk — or, at EOF,
                # a plausible header whose stream ends mid-record: the
                # truncated tail, handled below.
                break
            try:
                record, offset = record_from_bytes(buffer, offset)
            except ValueError:
                if policy is ErrorPolicy.DROP_TRACE:
                    raise _TraceDamage(data_path)
                health.records_skipped += 1
                syncing = True
                continue
            health.records_decoded += 1
            last_ts = record.timestamp_us
            # Record-at-a-time yields keep the scalar engine's historical
            # pull granularity (a bootstrap prefix decodes only what it
            # inspects); the batch engine never reaches this decode — its
            # framing consumes every complete record above.
            yield batch_from_records([record])
    remainder = len(buffer) - offset
    if remainder:
        if strict:
            raise ValueError(
                f"trailing truncated record ({remainder} bytes) "
                f"in {data_path}"
            )
        if policy is ErrorPolicy.DROP_TRACE:
            raise _TraceDamage(data_path)
        if syncing:
            # Damage ran into the end of the stream: the remnant is
            # part of the resynchronization loss, not a clean tail.
            health.bytes_resynced += remainder
        else:
            health.truncated_tails += 1
            health.truncated_tail_bytes += remainder


class _TraceDamage(Exception):
    """Internal sentinel: ``drop-trace`` policy met damaged bytes."""

    def __init__(self, data_path: Path) -> None:
        self.data_path = data_path
        super().__init__(f"damaged trace dropped: {data_path}")


def read_trace(
    data_path: Path,
    policy: PolicyLike = ErrorPolicy.STRICT,
    health: Optional[DecodeHealth] = None,
    *,
    vectorized: bool = True,
) -> RadioTrace:
    """Read one radio's trace back from disk: :func:`open_trace_stream`,
    drained.

    The drained trace is in local-time order and carries what decoding
    observed in ``decode_health``, also merged into ``health`` when one
    is given.  The index-count cross-check against the metadata sidecar
    only applies under ``strict`` — tolerant policies expect to decode
    fewer records than the index promises, and report the difference
    through the health counters instead.  Under ``drop-trace`` a damaged
    file yields an empty trace.  ``vectorized`` selects the decode
    engine as in :func:`iter_record_batches`.
    """
    trace = open_trace_stream(data_path, policy, vectorized=vectorized)
    trace.records  # drains the file (strict: and checks the index count)
    if health is not None:
        health.merge(trace.decode_health)
    return trace


def write_traces(traces: Iterable[RadioTrace], directory: Path) -> List[Path]:
    return [write_trace(trace, directory) for trace in traces]


def read_traces(
    directory: Path,
    policy: PolicyLike = ErrorPolicy.STRICT,
    health: Optional[DecodeHealth] = None,
    *,
    vectorized: bool = True,
) -> List[RadioTrace]:
    """Read every trace in a directory back from disk:
    :func:`open_trace_streams`, each drained as :func:`read_trace`
    drains one."""
    traces = open_trace_streams(directory, policy, vectorized=vectorized)
    for trace in traces:
        trace.records  # drains the file (strict: and checks the index count)
        if health is not None:
            health.merge(trace.decode_health)
    return traces
