"""The run-level degradation ledger surfaced on ``report.health``.

A day-scale reconstruction must degrade, not abort, when a capture is
damaged or a radio cannot be synchronized; what was lost is itemized
here so a caller can tell a pristine run from a salvaged one.  Two
layers can degrade: ingest decode (:class:`~repro.jtrace.io.DecodeHealth`
— skipped records, resynchronized bytes, truncated tails) and clock
synchronization (:class:`SyncHealth` — quarantined radios, islands,
late rejoins).

Layering note: ``core`` imports :class:`~repro.jtrace.io.DecodeHealth`
from ``jtrace`` (the substrate), never the reverse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..jtrace.io import DecodeHealth


@dataclass
class SyncHealth:
    """Degraded-mode synchronization outcome for one bootstrap."""

    quarantined: Dict[int, str] = field(default_factory=dict)
    islands: List[List[int]] = field(default_factory=list)
    rejoined: List[int] = field(default_factory=list)
    widen_rounds: int = 0

    @property
    def degraded(self) -> bool:
        return bool(self.quarantined)

    def summary(self) -> str:
        return (
            f"quarantined={len(self.quarantined)} "
            f"islands={len(self.islands)} rejoined={len(self.rejoined)} "
            f"widen_rounds={self.widen_rounds}"
        )


@dataclass
class HealthReport:
    """Run-level degradation ledger, surfaced on ``report.health``.

    One section per layer that can degrade: ingest decode and clock
    synchronization.  A report whose ``degraded`` is False certifies the
    run saw pristine inputs — exactly the conditions under which the
    output is bit-identical to the strict pipeline's.
    """

    ingest: DecodeHealth = field(default_factory=DecodeHealth)
    sync: SyncHealth = field(default_factory=SyncHealth)

    @property
    def degraded(self) -> bool:
        return not self.ingest.clean or self.sync.degraded

    def summary(self) -> str:
        return f"ingest[{self.ingest.summary()}] sync[{self.sync.summary()}]"
