"""Table 1: trace summary characteristics."""

import pytest

from repro.experiments.table1_summary import run_table1

pytestmark = pytest.mark.paper


def test_table1_summary(building_run, capsys):
    summary = run_table1(building_run)
    with capsys.disabled():
        print("\n=== Table 1: trace summary ===")
        print(summary.format_table())
    # Paper shape: a large error-event share (47%) and multiple
    # observations of each transmission.
    assert 0.2 <= summary.error_event_fraction <= 0.7
    assert summary.events_per_jframe > 2.0
    assert summary.unique_aps > 0 and summary.unique_clients > 0
