"""Figure 10: overprotective APs and affected 11g clients.

Paper: with a practical one-minute in-range test, 25-50% of active 11g
clients sit on overprotective APs during busy periods; footnote 7 bounds
the forgone throughput at ~1.98x (checked in tier-1 by
``tests/test_dot11_rates.py::TestFootnote7``).
"""

import pytest

from repro.dot11.rates import protection_overhead_factor
from repro.experiments.fig10_protection import run_fig10

pytestmark = pytest.mark.paper


def test_fig10_overprotective_aps(building_run, capsys):
    result = run_fig10(building_run)
    with capsys.disabled():
        print("\n=== Figure 10: overprotective APs ===")
        print(result.format_table())
        print(
            f"footnote-7 overhead factor: {protection_overhead_factor():.2f}"
            " (paper: 1.98)"
        )
    assert result.b_clients, "scenario must contain 802.11b clients"
    assert result.g_clients, "scenario must contain 802.11g clients"
    # Protection appears, and some of it is unnecessary.
    assert any(b.protecting_aps for b in result.bins)
    assert result.total_overprotective_aps() >= 1
    assert result.peak_affected_fraction() > 0.0
