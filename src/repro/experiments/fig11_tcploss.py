"""Experiment F11 — Figure 11: TCP loss rate decomposition.

Paper: across flows that complete a handshake, splitting each TCP loss
into its wireless or wired origin shows "as expected — that the wireless
component of TCP loss is dominant."
"""

from __future__ import annotations

from ..core.analysis.tcploss import TcpLossResult
from .common import ExperimentRun, get_building_run


def run_fig11(run: ExperimentRun = None) -> TcpLossResult:
    run = run or get_building_run()
    return run.report.passes["tcp_loss"]


def main() -> None:
    result = run_fig11()
    print("=== Figure 11: TCP loss decomposition ===")
    print(result.format_table())
    print()
    print("per-flow total loss-rate CDF:")
    xs = result.loss_rate_cdf()
    for q in (50, 75, 90, 99):
        if xs:
            idx = min(len(xs) - 1, int(q / 100 * len(xs)))
            print(f"  p{q}: {xs[idx]:.3f}")


if __name__ == "__main__":
    main()
