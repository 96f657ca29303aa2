"""Experiment T1 — Table 1: trace summary characteristics.

Paper values for the 24-hour trace: 2.7 B raw events, >47% physical/CRC
errors, 1.58 B events unified into 530 M jframes (2.97 events/jframe),
1,026 client MACs.  Absolute counts scale with trace length and building
size; the *shape* checks are the error share being substantial and the
events-per-jframe ratio around three ("on average the monitoring platform
makes three observations of every observed transmission").
"""

from __future__ import annotations

from ..core.analysis.summary import TraceSummary
from .common import ExperimentRun, get_building_run


def run_table1(run: ExperimentRun = None) -> TraceSummary:
    run = run or get_building_run()
    return run.report.passes["summary"]


def main() -> None:
    summary = run_table1()
    print("=== Table 1: trace summary ===")
    print(summary.format_table())
    print()
    print("paper shape checks:")
    print(f"  error share substantial: {summary.error_event_fraction:.2f} "
          f"(paper: 0.47)")
    print(f"  events/jframe ~3:        {summary.events_per_jframe:.2f} "
          f"(paper: 2.97)")


if __name__ == "__main__":
    main()
