"""Versioned, integrity-checked checkpoint codec for the service daemon.

A checkpoint is one pickle of a :class:`CheckpointState` — the shard
coordinator (engines and their FIFOs), drive, ledger and counters
serialized as a **single object graph**.  One graph matters: the merge
engines, the assemblers and the materialized jframes share objects
(jframes, tracks, attempts).  Pickling pieces separately would sever
that sharing and the restored daemon would silently diverge.

Within that graph a finalized :class:`~repro.core.unify.jframe.JFrame`
— almost all of a checkpoint's bulk — writes its radio-id and
universal-time columns plus its records as one flat run of field values
(it owns those columns exclusively), so a checkpoint costs what the
records it keeps cost, not one object walk per record; restore rebuilds
every record through the validating constructor.

On-disk format::

    MAGIC (4 bytes) | version (u32 LE) | crc32 (u32 LE) | length (u64 LE)
    | pickle payload

Writes are atomic: the payload lands in a same-directory temp file which
is ``os.replace``-d over the target, so a crash mid-write leaves the
previous checkpoint intact — the recovery point is always the last
*complete* checkpoint.  The pickle streams into that file as it is
built (the header, whose CRC and length are known only at the end, is
written last), so a write never holds a second copy of the payload.

Compatibility policy (documented in ``docs/service.md``): the version
is bumped whenever any pickled class's layout changes incompatibly;
``load_checkpoint`` refuses foreign magic, any other version — older
or newer — payloads whose CRC or length disagree with the header, and
payloads that do not unpickle (a class that has since moved, a record
its constructor rejects), raising :class:`CheckpointError` rather than
unpickling garbage or leaking the unpickler's own exception.
"""

from __future__ import annotations

import os
import pickle
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, BinaryIO, Dict

CHECKPOINT_MAGIC = b"JGSV"
CHECKPOINT_VERSION = 12

_CHECKPOINT_HEADER = struct.Struct("<4sIIQ")


class CheckpointError(RuntimeError):
    """The checkpoint file is foreign, damaged or of another version,
    or the daemon failed to write one."""


@dataclass
class CheckpointState:
    """Everything a restarted daemon needs, minus the record source.

    The daemon keeps its restorable state in this object, and a restore
    adopts the loaded one, so a checkpoint is the daemon's own objects
    at a deterministic loop boundary: the shard coordinator ``merge`` (a
    :class:`~repro.core.unify.UnifyStream` whose cursors come back
    without their feed binding); the downstream ``drive``; the
    ``bootstrap`` offset ledger; the ``published`` windows by key, in
    publication order; and ``checkpoints_written``, the checkpoints
    written, a file counting itself.

    The feed itself is *not* checkpointed — a restored daemon rebuilds
    it from configuration and seeks it to ``consumed``, what the merge
    has read from each radio (the simulator test double re-derives
    identical records; a live deployment replays from its upstream
    spool).
    """

    merge: Any
    drive: Any
    bootstrap: Any
    published: Dict[Any, Any] = field(default_factory=dict)
    checkpoints_written: int = 0

    #: What the merge has read: per radio, and all radios together.
    consumed = property(
        lambda self: {} if self.merge is None else self.merge.read_counts()
    )
    total_consumed = property(
        lambda self: 0 if self.merge is None else self.merge.records_read
    )


class _CrcSink:
    """A binary file's ``write`` that keeps the CRC of what it passed."""

    def __init__(self, fh: BinaryIO) -> None:
        self._write = fh.write
        self.crc = 0

    def write(self, data: bytes) -> int:
        self.crc = zlib.crc32(data, self.crc)
        return self._write(data)


def save_checkpoint(path: Path, state: CheckpointState) -> int:
    """Atomically write ``state`` to ``path`` (temp file + rename).

    Returns the bytes written, header included.  A failed write removes
    its temp file and leaves the previous checkpoint in place.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(bytes(_CHECKPOINT_HEADER.size))
            sink = _CrcSink(fh)
            pickle.Pickler(sink, protocol=pickle.HIGHEST_PROTOCOL).dump(state)
            size = fh.tell()
            fh.seek(0)
            fh.write(
                _CHECKPOINT_HEADER.pack(
                    CHECKPOINT_MAGIC,
                    CHECKPOINT_VERSION,
                    sink.crc,
                    size - _CHECKPOINT_HEADER.size,
                )
            )
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return size


def load_checkpoint(path: Path) -> CheckpointState:
    """Read, validate and unpickle a checkpoint written by this codec."""
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < _CHECKPOINT_HEADER.size:
        raise CheckpointError(f"{path}: truncated header")
    magic, version, crc, length = _CHECKPOINT_HEADER.unpack_from(raw)
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a Jigsaw service checkpoint")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: checkpoint version {version} is not the version "
            f"this build reads and writes ({CHECKPOINT_VERSION}); resume "
            "with the build that wrote it, or restart from the source"
        )
    payload = raw[_CHECKPOINT_HEADER.size:]
    if len(payload) != length:
        raise CheckpointError(
            f"{path}: payload length {len(payload)} != header {length} "
            "(truncated write?)"
        )
    if (zlib.crc32(payload) & 0xFFFFFFFF) != crc:
        raise CheckpointError(f"{path}: payload CRC mismatch (corruption)")
    try:
        state = pickle.loads(payload)
    except Exception as exc:
        raise CheckpointError(
            f"{path}: payload does not unpickle with this build "
            f"({type(exc).__name__}: {exc})"
        ) from exc
    if not isinstance(state, CheckpointState):
        raise CheckpointError(
            f"{path}: payload is {type(state).__name__}, "
            "not CheckpointState"
        )
    return state


__all__ = [
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "CheckpointState",
    "load_checkpoint",
    "save_checkpoint",
]
