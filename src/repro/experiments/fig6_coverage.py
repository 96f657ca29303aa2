"""Experiment F6 — Figure 6: coverage vs the wired trace, per station.

Paper: 97% of the 10 M unicast wired packets appear in the wireless trace;
46% of clients and 40% of APs have every frame captured; 78% of clients and
94% of APs exceed 95% coverage; clients in poorly covered rooms drag the
client tail down, and AP coverage beats client coverage because pods are
deployed near APs.
"""

from __future__ import annotations

from ..core.analysis.coverage import CoverageResult
from .common import ExperimentRun, get_building_run


def run_fig6(run: ExperimentRun = None) -> CoverageResult:
    run = run or get_building_run()
    return run.report.passes["wired_coverage"]


def main() -> None:
    result = run_fig6()
    print("=== Figure 6: wired-trace coverage ===")
    print(result.format_table())
    print()
    print("per-station detail (worst 10):")
    worst = sorted(result.stations, key=lambda s: s.coverage)[:10]
    for s in worst:
        kind = "AP" if s.is_ap else "client"
        print(
            f"  {s.station} ({kind}): "
            f"{s.observed_packets}/{s.wired_packets} = {s.coverage:.2f}"
        )


if __name__ == "__main__":
    main()
