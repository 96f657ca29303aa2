"""Experiment F4 — Figure 4: CDF of jframe group dispersion.

Paper: with a 10 ms search window across 156 radios over 24 hours, "for
90% percent of all jframes, the worst case time offset between any two
radios is less than 10 us, and 99% see a worst case offset under 20 us."
"""

from __future__ import annotations

from ..core.analysis.dispersion import DispersionCdf
from .common import ExperimentRun, get_building_run


def run_fig4(run: ExperimentRun = None) -> DispersionCdf:
    run = run or get_building_run()
    return run.report.passes["dispersion"]


def main() -> None:
    cdf = run_fig4()
    print("=== Figure 4: group dispersion CDF ===")
    print(cdf.format_table())
    print()
    print("cdf points (dispersion_us, fraction):")
    for x, y in cdf.cdf_points(max_points=15):
        print(f"  {x:8.1f}  {y:.3f}")


if __name__ == "__main__":
    main()
