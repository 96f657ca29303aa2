"""Coverage evaluation — Section 6, Figures 6 and 7.

Three experiments:

* :class:`WiredCoveragePass` — "for every packet in every flow in the wired
  trace that would result in a unicast DATA packet on the wireless network,
  we checked to see if the packet also appeared in the wireless trace",
  reported per station and split clients vs APs (Figure 6);
* :func:`pod_reduction_coverage` — re-run the whole pipeline on shrinking
  pod subsets, chosen by visual redundancy, and measure how AP and client
  coverage degrade (Figure 7);
* :func:`oracle_coverage` — the controlled laptop experiment: compare the
  platform's captures against the ground truth of everything a chosen
  station transmitted (the paper measures ~95% of link-level events).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple


from ...dot11.address import MacAddress
from ...dot11.frame import FrameType
from ...net.wired import WiredTraceRecord
from ..passes import PassContext, PipelinePass


@dataclass
class StationCoverage:
    station: MacAddress
    is_ap: bool
    wired_packets: int
    observed_packets: int

    @property
    def coverage(self) -> float:
        if self.wired_packets == 0:
            return 1.0
        return self.observed_packets / self.wired_packets


@dataclass
class CoverageResult:
    """Figure 6: per-station coverage of wired-trace packets."""

    stations: List[StationCoverage]

    def overall(self) -> float:
        total = sum(s.wired_packets for s in self.stations)
        seen = sum(s.observed_packets for s in self.stations)
        return seen / total if total else 1.0

    def _group(self, is_ap: bool) -> List[StationCoverage]:
        return [s for s in self.stations if s.is_ap == is_ap]

    def group_coverage(self, is_ap: bool) -> float:
        group = self._group(is_ap)
        total = sum(s.wired_packets for s in group)
        seen = sum(s.observed_packets for s in group)
        return seen / total if total else 1.0

    def fraction_of_stations_above(self, threshold: float, is_ap: bool) -> float:
        group = self._group(is_ap)
        if not group:
            return 0.0
        return sum(1 for s in group if s.coverage >= threshold) / len(group)

    def format_table(self) -> str:
        lines = [
            f"overall coverage: {self.overall():.3f} (paper: 0.97)",
            f"AP coverage:      {self.group_coverage(True):.3f}",
            f"client coverage:  {self.group_coverage(False):.3f}",
            "fraction of clients with 100% coverage: "
            f"{self.fraction_of_stations_above(1.0, False):.2f} (paper: 0.46)",
            "fraction of clients with >=95% coverage: "
            f"{self.fraction_of_stations_above(0.95, False):.2f} (paper: 0.78)",
            "fraction of APs with >=95% coverage: "
            f"{self.fraction_of_stations_above(0.95, True):.2f} (paper: 0.94)",
        ]
        return "\n".join(lines)


class WiredCoveragePass(PipelinePass):
    """Streaming Figure 6: index unicast DATA payloads off the jframe
    feed, then match every wired unicast packet against the air trace.

    A downlink wired record must appear as a DATA frame transmitted by its
    AP; an uplink record as a DATA frame from its client.  Matching is by
    payload content — the same join key the paper's wired/wireless
    comparison uses (flow + packet identity).
    """

    name = "wired_coverage"

    def __init__(self, wired_trace: Sequence[WiredTraceRecord]) -> None:
        self.wired_trace = wired_trace
        self._index: Dict[Tuple[Optional[MacAddress], bytes], int] = (
            defaultdict(int)
        )

    def on_jframe(self, jframe) -> None:
        frame = jframe.frame
        if (
            frame is None
            or frame.ftype is not FrameType.DATA
            or frame.is_group_addressed
            or not frame.body
        ):
            return
        self._index[(frame.addr2, bytes(frame.body[:64]))] += 1

    def finish(self, context: PassContext) -> CoverageResult:
        index = self._index
        per_station: Dict[Tuple[MacAddress, bool], List[int]] = defaultdict(
            lambda: [0, 0]
        )
        for record in self.wired_trace:
            if record.downlink:
                station, is_ap = record.ap_mac, True
            else:
                station, is_ap = record.client_mac, False
            counters = per_station[(station, is_ap)]
            counters[0] += 1
            key = (station, bytes(record.payload[:64]))
            if index.get(key, 0) > 0:
                index[key] -= 1
                counters[1] += 1
        stations = [
            StationCoverage(
                station=station,
                is_ap=is_ap,
                wired_packets=total,
                observed_packets=seen,
            )
            for (station, is_ap), (total, seen) in sorted(
                per_station.items(), key=lambda kv: kv[0][0]
            )
        ]
        return CoverageResult(stations=stations)


@dataclass
class PodReductionPoint:
    """One bar pair of Figure 7."""

    n_pods: int
    n_radios: int
    ap_coverage: float
    client_coverage: float
    partitioned: bool
    unreachable_radios: int


@dataclass
class PodReductionResult:
    points: List[PodReductionPoint]

    def format_table(self) -> str:
        lines = [f"{'pods':>5} {'radios':>7} {'AP cov':>7} {'client cov':>11} "
                 f"{'partitioned':>12}"]
        for p in self.points:
            lines.append(
                f"{p.n_pods:>5} {p.n_radios:>7} {p.ap_coverage:>7.3f} "
                f"{p.client_coverage:>11.3f} {str(p.partitioned):>12}"
            )
        return "\n".join(lines)


def pod_reduction_coverage(
    artifacts,
    pod_counts: Sequence[int],
) -> PodReductionResult:
    """Figure 7: coverage as the pod deployment shrinks.

    Pods are removed in visual-redundancy order (most redundant first),
    the full pipeline re-runs on the surviving radios with a
    :class:`WiredCoveragePass` registered and no per-layer lists kept,
    and coverage is recomputed against the same wired trace.  A partitioned bootstrap —
    the paper's 10-pod failure — is reported rather than hidden.
    """
    from ..pipeline import JigsawPipeline

    removal_order = artifacts.pod_reduction_order()
    total = len(artifacts.pods)
    points: List[PodReductionPoint] = []
    for count in pod_counts:
        count = min(count, total)
        removed = set(removal_order[: total - count])
        kept_pods = [i for i in range(total) if i not in removed]
        kept_radios = set(artifacts.radios_of_pods(kept_pods))
        traces = [
            t for t in artifacts.radio_traces if t.radio_id in kept_radios
        ]
        clock_groups = [
            g
            for g in artifacts.clock_groups()
            if all(r in kept_radios for r in g)
        ]
        report = JigsawPipeline().run(
            traces,
            clock_groups=clock_groups,
            passes=[WiredCoveragePass(artifacts.wired_trace)],
            materialize=False,
        )
        coverage = report.passes["wired_coverage"]
        points.append(
            PodReductionPoint(
                n_pods=count,
                n_radios=len(traces),
                ap_coverage=coverage.group_coverage(True),
                client_coverage=coverage.group_coverage(False),
                partitioned=not report.bootstrap.fully_synchronized,
                unreachable_radios=len(report.bootstrap.unreachable),
            )
        )
    return PodReductionResult(points=points)


@dataclass
class OracleCoverage:
    """Section 6's controlled laptop experiment."""

    station: MacAddress
    transmitted: int
    observed: int

    @property
    def coverage(self) -> float:
        if self.transmitted == 0:
            return 1.0
        return self.observed / self.transmitted

    def format_table(self) -> str:
        return (
            f"station {self.station}: {self.observed}/{self.transmitted} "
            f"link-level events observed ({100 * self.coverage:.1f}%; "
            f"paper: ~95%)"
        )


def oracle_coverage(artifacts, station_mac: MacAddress) -> OracleCoverage:
    """Compare ground-truth transmissions of one station against captures.

    The paper walked a laptop through the building logging every link-level
    event it generated; our oracle is the medium's transmission history.
    """
    observed_txids: Set[int] = set()
    for trace in artifacts.radio_traces:
        for record in trace:
            if record.truth_txid:
                observed_txids.add(record.truth_txid)
    transmitted = [
        tx
        for tx in artifacts.ground_truth
        if tx.transmitter_id == str(station_mac)
    ]
    observed = sum(1 for tx in transmitted if tx.txid in observed_txids)
    return OracleCoverage(
        station=station_mac,
        transmitted=len(transmitted),
        observed=observed,
    )
