"""Ablations of the unifier's design choices (README.md, "Experiments").

Reruns unification on the same building traces with one knob changed each
time; checks the paper's qualitative arguments (resynchronization and skew
compensation are what keep a large fleet synchronized).
"""

import pytest

from repro.experiments.ablations import run_ablations

pytestmark = pytest.mark.paper


def test_unifier_ablations(building_run, capsys):
    result = run_ablations(building_run)
    with capsys.disabled():
        print("\n=== Unifier ablations ===")
        print(result.format_table())
    baseline = result.by_label("baseline (paper settings)")
    never = result.by_label("never resync")
    no_skew = result.by_label("no skew compensation")

    # Continual resynchronization is what keeps dispersion tight:
    assert baseline.p90_us < never.p90_us
    # ...and its benefit survives even without proactive skew compensation,
    # but compensation must not make things worse.
    assert no_skew.p99_us >= baseline.p99_us or abs(
        no_skew.p99_us - baseline.p99_us
    ) < 5.0
    # Median vs mean timestamps: both viable; median no worse on p90.
    mean_ts = result.by_label("mean timestamp")
    assert baseline.p90_us <= mean_ts.p90_us + 2.0
