"""Figure 11: TCP loss decomposition.

Paper: across completed-handshake flows, "the wireless component of TCP
loss is dominant."
"""

import pytest

from repro.experiments.fig11_tcploss import run_fig11

pytestmark = pytest.mark.paper


def test_fig11_tcp_loss_decomposition(building_run, capsys):
    result = run_fig11(building_run)
    with capsys.disabled():
        print("\n=== Figure 11: TCP loss decomposition ===")
        print(result.format_table())
    assert result.n_flows >= 20
    wireless, wired, _ = result.aggregate_rates()
    assert wireless + wired > 0, "the trace must contain TCP losses"
    # The paper's headline claim.
    assert result.wireless_dominates()
