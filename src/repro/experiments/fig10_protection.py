"""Experiment F10 — Figure 10: overprotective APs and affected 11g clients.

Paper: the production policy keeps protection on for an hour after last
sensing an 802.11b client; with a practical one-minute test, 25-50% of
active 802.11g clients sit on overprotective APs during busy periods, and
the number of overprotective APs falls as more 11b clients become active.
Footnote 7's arithmetic bounds the potential throughput win at ~1.98x.
"""

from __future__ import annotations

from ..core.analysis.protection import ProtectionResult
from ..dot11.rates import protection_overhead_factor
from .common import ExperimentRun, get_building_run


def run_fig10(run: ExperimentRun = None) -> ProtectionResult:
    run = run or get_building_run()
    return run.report.passes["protection"]


def main() -> None:
    result = run_fig10()
    print("=== Figure 10: overprotective APs ===")
    print(result.format_table())
    print()
    print(f"802.11b clients observed: {len(result.b_clients)}")
    print(f"802.11g clients observed: {len(result.g_clients)}")
    print(
        "footnote 7 protection overhead factor: "
        f"{protection_overhead_factor():.2f} (paper: 1.98)"
    )


if __name__ == "__main__":
    main()
