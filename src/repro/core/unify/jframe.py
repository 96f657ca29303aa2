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
from typing import Any, List, Optional, Tuple

from ...dot11.address import MacAddress
from ...dot11.frame import Frame
from ...jtrace.records import TraceRecord


@dataclass(slots=True)
class Instance:
    """One radio's observation of a transmission.

    ``frame`` caches the parse of a VALID record's snap: every record is
    decoded at most once, when it is popped from the merge queue.

    One :class:`Instance` is created per trace record, so construction is
    on the merge hot path — ``slots=True`` keeps it allocation-cheap (and
    drops the frozen-dataclass ``object.__setattr__`` overhead).
    """

    radio_id: int
    local_us: int
    universal_us: float
    record: TraceRecord
    frame: Optional[Frame] = None

    def __reduce__(self) -> Tuple[Any, Tuple[Any, ...]]:
        # Tuple state, not the default slots state dict.  Only the merge
        # engines' *open* groups pickle bare instances; a finalized
        # jframe writes its instances as one flat run (JFrame.__reduce__).
        return (
            Instance,
            (
                self.radio_id,
                self.local_us,
                self.universal_us,
                self.record,
                self.frame,
            ),
        )


#: Values one instance contributes to a pickled jframe's flat run: the
#: four :class:`Instance` scalars, then the record's eleven fields.
_RUN_STRIDE = 4 + len(TraceRecord._fields)


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
    """

    timestamp_us: int
    kind: JFrameKind
    channel: int
    instances: List[Instance]
    frame: Optional[Frame] = None          # parsed representative (VALID only)
    frame_len: int = 0
    fcs: int = 0
    rate_mbps: float = 0.0
    duration_us: int = 0
    dispersion_us: float = 0.0
    transmitter: Optional[MacAddress] = None

    def __reduce__(self) -> Tuple[Any, Tuple[Any, ...]]:
        # The ten scalars plus one flat list: per instance ``radio_id,
        # local_us, universal_us, frame`` then the record's fields.  A
        # checkpoint holds tens of thousands of retained instances; as
        # objects each costs a Python-level reduce call and two tuples
        # for the pickler to memoise, as a run they cost their values.
        # A finalized jframe owns its instance list exclusively, so no
        # sharing is severed; the jframe itself is still one memo entry.
        run: List[Any] = []
        extend = run.extend
        for inst in self.instances:
            extend(
                (inst.radio_id, inst.local_us, inst.universal_us, inst.frame)
            )
            extend(inst.record)
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
                run,
            ),
        )

    @property
    def n_instances(self) -> int:
        return len(self.instances)

    @property
    def radios(self) -> List[int]:
        return [instance.radio_id for instance in self.instances]

    @property
    def end_us(self) -> int:
        return self.timestamp_us

    @property
    def start_us(self) -> int:
        return self.timestamp_us - self.duration_us

    @property
    def is_valid(self) -> bool:
        return self.kind is JFrameKind.VALID

    def truth_txid(self) -> int:
        """Majority ground-truth transmission id (evaluation only).

        The Jigsaw pipeline never consults this; evaluation code uses it to
        score unification against the simulator's oracle.
        """
        counts = Counter(
            inst.record.truth_txid
            for inst in self.instances
            if inst.record.truth_txid
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
    run: List[Any],
) -> JFrame:
    """Unpickle a jframe from its scalars and flat instance run.

    Every record goes back through the validating ``TraceRecord(...)``
    constructor, exactly as when records pickled themselves.
    """
    if len(run) % _RUN_STRIDE:
        raise ValueError("jframe run is not a whole number of instances")
    instances = [
        Instance(
            run[i],
            run[i + 1],
            run[i + 2],
            TraceRecord(*run[i + 4:i + _RUN_STRIDE]),
            run[i + 3],
        )
        for i in range(0, len(run), _RUN_STRIDE)
    ]
    return JFrame(
        timestamp_us,
        kind,
        channel,
        instances,
        frame,
        frame_len,
        fcs,
        rate_mbps,
        duration_us,
        dispersion_us,
        transmitter,
    )
