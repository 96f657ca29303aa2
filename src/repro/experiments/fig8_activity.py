"""Experiment F8 — Figure 8: diurnal activity and traffic mix.

Paper: one-minute bins over a day show (a) active clients/APs following a
diurnal curve — busy 10am-5pm, a floor of always-on devices overnight —
and (b) bursty data traffic against constant beacon traffic and prominent
ARP broadcast traffic.  Our compressed day maps those bins onto fractions
of the simulated duration; the airtime analysis also checks the Section
7.1 claim that broadcasts eat ~10% of any monitor's channel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..core.analysis.activity import ActivityTimeline
from .common import ExperimentRun, get_building_run


@dataclass
class Fig8Result:
    timeline: ActivityTimeline
    airtime_share: Dict[int, float]

    def busiest_over_quietest_clients(self) -> float:
        series = [b.n_active_clients for b in self.timeline.bins]
        low = min(series)
        high = max(series)
        return high / max(1, low)


def run_fig8(run: ExperimentRun = None) -> Fig8Result:
    run = run or get_building_run()
    passes = run.report.passes
    return Fig8Result(
        timeline=passes["activity"], airtime_share=passes["broadcast_airtime"]
    )


def main() -> None:
    result = run_fig8()
    print("=== Figure 8: activity time series ===")
    print(result.timeline.format_table())
    print()
    print("broadcast airtime share per channel "
          "(paper: ~10% of any monitor's channel):")
    for channel, share in result.airtime_share.items():
        print(f"  ch{channel}: {100 * share:.1f}%")


if __name__ == "__main__":
    main()
