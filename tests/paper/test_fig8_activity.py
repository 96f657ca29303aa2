"""Figure 8: diurnal activity time series and traffic mix.

Paper: active clients follow a day curve with an overnight floor; beacon
traffic is constant while data is bursty; broadcast (ARP + beacons) burns
~10% of any monitor's channel airtime.
"""

import pytest

from repro.experiments.fig8_activity import run_fig8

pytestmark = pytest.mark.paper


def test_fig8_activity_timeline(building_run, capsys):
    result = run_fig8(building_run)
    with capsys.disabled():
        print("\n=== Figure 8: activity time series ===")
        print(result.timeline.format_table(max_rows=12))
        print("broadcast airtime share per channel (paper ~10%):")
        for channel, share in result.airtime_share.items():
            print(f"  ch{channel}: {100 * share:.1f}%")
    bins = result.timeline.bins
    assert len(bins) >= 12
    # Diurnal shape: the busiest bin clearly exceeds the quietest.
    assert result.busiest_over_quietest_clients() >= 1.5
    # Beacon traffic is roughly constant: no interior bin is empty.
    beacon = [b.beacon_bytes for b in bins[1:-1]]
    assert all(v > 0 for v in beacon)
    # Broadcasts consume a noticeable share of every monitored channel.
    assert all(share > 0.02 for share in result.airtime_share.values())
