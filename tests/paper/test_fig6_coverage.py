"""Figure 6: per-station coverage against the wired trace.

Paper: 97% of wired unicast packets appear in the wireless trace; APs are
covered better than clients (pods sit near APs); 78% of clients and 94% of
APs exceed 95% coverage.
"""

import pytest

from repro.experiments.fig6_coverage import run_fig6

pytestmark = pytest.mark.paper


def test_fig6_wired_coverage(building_run, capsys):
    result = run_fig6(building_run)
    with capsys.disabled():
        print("\n=== Figure 6: wired-trace coverage ===")
        print(result.format_table())
    assert result.overall() > 0.9            # paper: 0.97
    # APs covered at least as well as clients (pods deployed near APs).
    assert result.group_coverage(True) >= result.group_coverage(False)
    # A real client tail exists: not everyone is perfectly covered.
    assert result.fraction_of_stations_above(1.0, False) < 1.0
