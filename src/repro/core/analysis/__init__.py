"""Analyses exploiting the global viewpoint (Sections 6 and 7).

Every analysis is a streaming pass (:class:`ActivityPass`,
:class:`DispersionPass`, :class:`ProtectionPass`, :class:`TcpLossPass`,
:class:`SummaryPass`, :class:`InterferencePass`,
:class:`WiredCoveragePass`, :class:`BroadcastAirtimePass`) registered on
``JigsawPipeline.run(traces, passes=[...])``; its result lands on
``report.passes[pass.name]``.  With ``materialize=False`` the report keeps
no per-layer lists (the input traces still hold every record until the
run ends).
"""

from .activity import (
    ActivityBin,
    ActivityPass,
    ActivityTimeline,
    BroadcastAirtimePass,
)
from .coverage import (
    CoverageResult,
    OracleCoverage,
    PodReductionResult,
    StationCoverage,
    WiredCoveragePass,
    oracle_coverage,
    pod_reduction_coverage,
)
from .dispersion import DispersionCdf, DispersionPass
from .interference import (
    InterferencePass,
    InterferenceResult,
    InterferenceScanner,
    PairInterference,
)
from .protection import ProtectionPass, ProtectionResult
from .summary import (
    StationTracker,
    SummaryPass,
    TraceSummary,
    identify_stations,
)
from .tcploss import TcpLossPass, TcpLossResult

__all__ = [
    "ActivityBin",
    "ActivityPass",
    "ActivityTimeline",
    "BroadcastAirtimePass",
    "CoverageResult",
    "OracleCoverage",
    "PodReductionResult",
    "StationCoverage",
    "WiredCoveragePass",
    "oracle_coverage",
    "pod_reduction_coverage",
    "DispersionCdf",
    "DispersionPass",
    "InterferencePass",
    "InterferenceResult",
    "InterferenceScanner",
    "PairInterference",
    "ProtectionPass",
    "ProtectionResult",
    "StationTracker",
    "SummaryPass",
    "TraceSummary",
    "identify_stations",
    "TcpLossPass",
    "TcpLossResult",
]
