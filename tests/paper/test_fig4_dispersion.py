"""Figure 4: CDF of jframe group dispersion.

Paper: 90% of jframes < 10 us worst-case inter-radio offset; 99% < 20 us.
"""

import pytest

from repro.experiments.fig4_dispersion import run_fig4

pytestmark = pytest.mark.paper


def test_fig4_dispersion_cdf(building_run, capsys):
    cdf = run_fig4(building_run)
    with capsys.disabled():
        print("\n=== Figure 4: group dispersion CDF ===")
        print(cdf.format_table())
    assert cdf.n > 1000
    # The paper's headline numbers, with modest slack for the simulator.
    assert cdf.fraction_below(10.0) >= 0.85   # paper: 0.90
    assert cdf.fraction_below(20.0) >= 0.95   # paper: 0.99
