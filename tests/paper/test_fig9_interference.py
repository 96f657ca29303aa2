"""Figure 9: interference loss rate across (s, r) pairs.

Paper: 88% of scored pairs experience interference loss; senders split
56%/44% between APs and clients; half the pairs sit at X <= 0.025 while
10% reach X >= 0.1 and 5% reach X >= 0.2.
"""

import pytest

from repro.experiments.fig9_interference import run_fig9

pytestmark = pytest.mark.paper


def test_fig9_interference(building_run, capsys):
    result = run_fig9(building_run)
    with capsys.disabled():
        print("\n=== Figure 9: interference loss rate ===")
        print(result.format_table())
    assert result.n_pairs >= 20
    # Most pairs see some interference; a heavy tail exists but is small.
    assert result.fraction_pairs_interfered() > 0.4     # paper: 0.88
    assert result.fraction_pairs_with_rate_at_least(0.1) < 0.5
    ap_share, client_share = result.sender_split()
    assert ap_share > 0.2 and client_share > 0.2        # both kinds interfere
