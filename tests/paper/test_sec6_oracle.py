"""Section 6: controlled link-event coverage oracle.

Paper: the platform observed ~95% of all link-level events generated by a
laptop walked through the building (prior studies: 80-97%).
"""

import pytest

from repro.experiments.sec6_oracle import run_sec6_oracle

pytestmark = pytest.mark.paper


def test_sec6_oracle_coverage(building_run, capsys):
    results = run_sec6_oracle(building_run, max_stations=20)
    observed = sum(r.observed for r in results)
    transmitted = sum(r.transmitted for r in results)
    coverage = observed / max(1, transmitted)
    with capsys.disabled():
        print(
            f"\n=== Section 6 oracle: {observed}/{transmitted} "
            f"= {100 * coverage:.1f}% (paper ~95%, prior studies 80-97%) ==="
        )
    assert coverage > 0.8
