"""The jframe: one physical transmission, all its observations.

"Jigsaw processes all traces in time order and unifies duplicate frames,
called instances, into a single data structure called a jframe.  Each
jframe holds a (universal) timestamp, the full contents of the frame and
the identity of the radios that heard each instance." (Section 4.2)
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import itemgetter
from typing import Any, List, Optional, Tuple

from ...dot11.address import MacAddress
from ...dot11.frame import Frame
from ...jtrace.records import RecordKind, TraceRecord


@dataclass(slots=True)
class Instance:
    """One radio's observation of a transmission.

    A read-side view: a jframe stores its observations as columns and
    builds these on the first read of :attr:`JFrame.instances`.
    ``frame`` is the jframe's parsed frame for a VALID record (every
    VALID capture in a jframe carries the same bytes) and ``None``
    otherwise.
    """

    radio_id: int
    local_us: int
    universal_us: float
    record: TraceRecord
    frame: Optional[Frame] = None


#: Values one record contributes to a pickled jframe's flat run.
_RECORD_STRIDE = len(TraceRecord._fields)
_TRUTH_TXID = itemgetter(TraceRecord._fields.index("truth_txid"))


class JFrameKind(enum.Enum):
    VALID = "valid"          # at least one FCS-good capture
    CORRUPT = "corrupt"      # only damaged captures
    PHY_ERROR = "phy_error"  # only physical-error events


@dataclass
class JFrame:
    """One unified transmission on the global timeline.

    ``timestamp_us`` is the *end of reception* in universal time — capture
    hardware stamps a frame once it has fully arrived (Section 3.3's 1 us
    Atheros capture clock does exactly this).  ``start_us`` subtracts the
    airtime back out for analyses that need occupancy intervals.

    The observations are three parallel columns, one entry per instance
    in merge order: ``radio_ids``, ``universal_us`` (each instance's
    universal timestamp) and ``records``.  :attr:`instances` builds the
    per-instance view from them on first read and keeps it.
    """

    timestamp_us: int
    kind: JFrameKind
    channel: int
    radio_ids: List[int]
    universal_us: List[float]
    records: List[TraceRecord]
    frame: Optional[Frame] = None          # parsed representative (VALID only)
    frame_len: int = 0
    fcs: int = 0
    rate_mbps: float = 0.0
    duration_us: int = 0
    dispersion_us: float = 0.0
    transmitter: Optional[MacAddress] = None

    def __reduce__(self) -> Tuple[Any, Tuple[Any, ...]]:
        # The ten scalars, the two scalar columns and one flat run of
        # record fields.  A checkpoint holds tens of thousands of
        # retained records; as objects each costs a Python-level reduce
        # call and a tuple for the pickler to memoise, as a run they
        # cost their values.  A finalized jframe owns its columns
        # exclusively, so no sharing is severed; the jframe itself is
        # still one memo entry.  A built :attr:`instances` is not kept.
        return (
            _rebuild_jframe,
            (
                self.timestamp_us,
                self.kind,
                self.channel,
                self.frame,
                self.frame_len,
                self.fcs,
                self.rate_mbps,
                self.duration_us,
                self.dispersion_us,
                self.transmitter,
                self.radio_ids,
                self.universal_us,
                list(chain.from_iterable(self.records)),
            ),
        )

    @cached_property
    def instances(self) -> List[Instance]:
        """One :class:`Instance` per observation, built on first read."""
        valid = RecordKind.VALID
        frame = self.frame
        return [
            Instance(
                radio_id,
                record.timestamp_us,
                universal,
                record,
                frame if record.kind is valid else None,
            )
            for radio_id, universal, record in zip(
                self.radio_ids, self.universal_us, self.records
            )
        ]

    @property
    def n_instances(self) -> int:
        return len(self.records)

    @property
    def radios(self) -> List[int]:
        return list(self.radio_ids)

    @property
    def end_us(self) -> int:
        return self.timestamp_us

    @property
    def start_us(self) -> int:
        return self.timestamp_us - self.duration_us

    def truth_txid(self) -> int:
        """Majority ground-truth transmission id (evaluation only).

        The Jigsaw pipeline never consults this; evaluation code uses it to
        score unification against the simulator's oracle.
        """
        counts: Counter[int] = Counter(
            filter(None, map(_TRUTH_TXID, self.records))
        )
        if not counts:
            return 0
        return counts.most_common(1)[0][0]

    def __str__(self) -> str:
        desc = str(self.frame) if self.frame is not None else self.kind.value
        return (
            f"JFrame[t={self.timestamp_us} ch{self.channel} x{self.n_instances} "
            f"disp={self.dispersion_us:.1f}us {desc}]"
        )


def _rebuild_jframe(
    timestamp_us: int,
    kind: JFrameKind,
    channel: int,
    frame: Optional[Frame],
    frame_len: int,
    fcs: int,
    rate_mbps: float,
    duration_us: int,
    dispersion_us: float,
    transmitter: Optional[MacAddress],
    radio_ids: List[int],
    universal_us: List[float],
    run: List[Any],
) -> JFrame:
    """Unpickle a jframe from its scalars, columns and flat record run.

    Every record goes back through the validating ``TraceRecord(...)``
    constructor, exactly as when records pickled themselves.
    """
    n = len(radio_ids)
    if len(universal_us) != n or len(run) != n * _RECORD_STRIDE:
        raise ValueError("jframe columns disagree on the instance count")
    records = [
        TraceRecord(*run[i:i + _RECORD_STRIDE])
        for i in range(0, len(run), _RECORD_STRIDE)
    ]
    return JFrame(
        timestamp_us,
        kind,
        channel,
        radio_ids,
        universal_us,
        records,
        frame,
        frame_len,
        fcs,
        rate_mbps,
        duration_us,
        dispersion_us,
        transmitter,
    )
