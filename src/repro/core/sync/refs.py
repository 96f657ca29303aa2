"""Reference-frame identification.

"Not all 802.11 frames are good references for synchronization.  For
example, ACK frames to the same destination are always identical, some
stations always use zero sequence numbers on probe frames, and frame
retransmissions cannot be distinguished from one another.  Thus, Jigsaw
only uses 'unique' frames for all synchronization activities.  Generally,
these are DATA frames that do not have the retransmit bit set." (Sec. 4.1)

A reference *key* identifies a single physical transmission by content:
two radios holding records with equal keys heard the same frame at the same
instant, which is what makes the pair a synchronization constraint.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ...dot11.frame import Frame
from ...dot11.serialize import FrameParseError, frame_from_capture
from ...jtrace.records import RecordKind, TraceRecord

#: Content identity of one captured frame: (length, FCS, snapped bytes).
ReferenceKey = Tuple[int, int, bytes]


#: Decoded-frame cache keyed by capture content.  Control frames (ACK, CTS)
#: repeat byte-identical constantly, and every duplicate reception of a
#: frame shares its bytes — the hit rate in a building trace is high.
#: Frames are immutable, so sharing decoded objects is safe.  The hit
#: path is a bare dict lookup — no recency bookkeeping, because the
#: limit is a safety bound that real traces never reach (a building run
#: populates ~23k of the 262k slots); if it is reached, entries age out
#: one at a time in insertion order instead of discarding the whole
#: cache at once.
_PARSE_CACHE: Dict[Tuple[bytes, int], Optional[Frame]] = {}
_PARSE_CACHE_LIMIT = 1 << 18


def parse_record_frame(record: TraceRecord) -> Optional[Frame]:
    """Best-effort decode of a capture record into a frame.

    Valid records parse unless truncation removed the header (it cannot —
    the snap always covers it).  Corrupt records usually fail and return
    ``None``; the pipeline then falls back to transmitter-address matching.
    """
    if not record.kind.has_frame or not record.snap:
        return None
    cache = _PARSE_CACHE
    key = (record.snap, record.frame_len)
    cached = cache.get(key, False)
    if cached is not False:
        return cached
    if record.frame_len <= len(record.snap):
        data = record.snap[:-4]  # full capture: strip the FCS trailer
    else:
        data = record.snap       # truncated: no FCS present in the snap
    try:
        frame: Optional[Frame] = frame_from_capture(data)
    except FrameParseError:
        frame = None
    if len(cache) >= _PARSE_CACHE_LIMIT:
        del cache[next(iter(cache))]  # oldest inserted
    cache[key] = frame
    return frame


#: Reference eligibility per capture content, keyed like
#: :data:`_PARSE_CACHE` and bounded the same way: does the capture parse
#: into a sequence-carrying frame with its retry bit clear?  It holds
#: the verdict, never the reference key — ``fcs`` is not part of the
#: probe, and two transmissions' truncated snaps can share a prefix.
_REFERENCE_VERDICTS: Dict[Tuple[bytes, int], bool] = {}


def reference_verdict(record: TraceRecord) -> bool:
    """Whether a VALID capture's frame can serve as a reference.

    Each distinct ``(snap, frame_len)`` is classified once; callers
    check the record kind first.
    """
    probe = (record.snap, record.frame_len)
    verdict = _REFERENCE_VERDICTS.get(probe)
    if verdict is None:
        frame = parse_record_frame(record)
        verdict = bool(
            frame is not None
            and frame.ftype.carries_sequence
            and not frame.retry
        )
        verdicts = _REFERENCE_VERDICTS
        if len(verdicts) >= _PARSE_CACHE_LIMIT:
            del verdicts[next(iter(verdicts))]  # oldest inserted
        verdicts[probe] = verdict
    return verdict


def reference_key(record: TraceRecord) -> Optional[ReferenceKey]:
    """The synchronization reference key for a record, if it qualifies.

    Requirements: a VALID capture of a sequence-carrying frame whose retry
    bit is clear.  Returns ``None`` otherwise.
    """
    if record.kind is not RecordKind.VALID or not reference_verdict(record):
        return None
    return (record.frame_len, record.fcs, record.snap)


def content_key(record: TraceRecord) -> ReferenceKey:
    """Plain content identity (no uniqueness filter) for unification."""
    return (record.frame_len, record.fcs, record.snap)
