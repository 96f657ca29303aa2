"""Analyses exploiting the global viewpoint (Sections 6 and 7).

Every analysis exists in two interchangeable forms:

* a **streaming pass** (:class:`ActivityPass`, :class:`DispersionPass`,
  :class:`ProtectionPass`, :class:`TcpLossPass`, :class:`SummaryPass`,
  :class:`InterferencePass`, :class:`WiredCoveragePass`,
  :class:`BroadcastAirtimePass`) that taps
  ``JigsawPipeline.run(traces, passes=[...])`` directly, so with
  ``materialize=False`` the report keeps no per-layer lists (the input
  traces still hold every record until the run ends);
* the classic **function entry point** (``activity_timeline(report)``
  etc.), now a thin wrapper that replays a materialized report through
  the very same pass — so both styles produce identical results by
  construction.
"""

from .activity import (
    ActivityBin,
    ActivityPass,
    ActivityTimeline,
    BroadcastAirtimePass,
    activity_timeline,
    broadcast_airtime_share,
)
from .coverage import (
    CoverageResult,
    OracleCoverage,
    PodReductionResult,
    StationCoverage,
    WiredCoveragePass,
    oracle_coverage,
    pod_reduction_coverage,
    wired_coverage,
)
from .dispersion import DispersionCdf, DispersionPass, dispersion_cdf
from .interference import (
    InterferencePass,
    InterferenceResult,
    InterferenceScanner,
    PairInterference,
    estimate_interference,
)
from .protection import ProtectionPass, ProtectionResult, analyze_protection
from .summary import (
    StationTracker,
    SummaryPass,
    TraceSummary,
    identify_stations,
    summarize,
)
from .tcploss import TcpLossPass, TcpLossResult, analyze_tcp_loss

__all__ = [
    "ActivityBin",
    "ActivityPass",
    "ActivityTimeline",
    "BroadcastAirtimePass",
    "activity_timeline",
    "broadcast_airtime_share",
    "CoverageResult",
    "OracleCoverage",
    "PodReductionResult",
    "StationCoverage",
    "WiredCoveragePass",
    "oracle_coverage",
    "pod_reduction_coverage",
    "wired_coverage",
    "DispersionCdf",
    "DispersionPass",
    "dispersion_cdf",
    "InterferencePass",
    "InterferenceResult",
    "InterferenceScanner",
    "PairInterference",
    "estimate_interference",
    "ProtectionPass",
    "ProtectionResult",
    "analyze_protection",
    "StationTracker",
    "SummaryPass",
    "TraceSummary",
    "identify_stations",
    "summarize",
    "TcpLossPass",
    "TcpLossResult",
    "analyze_tcp_loss",
]
