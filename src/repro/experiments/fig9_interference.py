"""Experiment F9 — Figure 9: interference loss rate across (s, r) pairs.

Paper (day-long trace, pairs with >=100 packets): 88% of pairs show some
interference loss; senders split 56% AP / 44% client; the average
background loss rate is 0.12; the CDF of the interference loss rate X has
~50% of pairs at or below 0.025, 10% at 0.1+, 5% at 0.2+, and a small tail
above 0.5; negative estimates (11% of pairs) truncate to zero.
"""

from __future__ import annotations

from ..core.analysis.interference import InterferenceResult
from .common import ExperimentRun, get_building_run


def run_fig9(run: ExperimentRun = None) -> InterferenceResult:
    run = run or get_building_run()
    return run.report.passes["interference"]


def main() -> None:
    result = run_fig9()
    print("=== Figure 9: interference loss rate ===")
    print(result.format_table())
    print()
    xs = result.loss_rate_cdf()
    if xs:
        print("X percentiles:")
        for q in (50, 75, 90, 95, 99):
            idx = min(len(xs) - 1, int(q / 100 * len(xs)))
            print(f"  p{q}: {xs[idx]:.3f}")


if __name__ == "__main__":
    main()
