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
        # Tuple state: one per merged record rides in every checkpoint,
        # and the default slots pickling writes a state dict for each.
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
