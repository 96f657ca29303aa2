"""The scenario-family sweep.

The pipeline must stay faster than the paper's event rate on *every*
registered workload family, not just the canonical building run — and
each family must actually produce the signal it exists to stress
(roam handoffs, hidden-terminal collisions, cross-channel probe bursts,
a flash-crowd wave).
"""

import itertools

import pytest

from repro.dot11.frame import FrameType
from repro.experiments.scenarios import get_family_run
from repro.sim import REGISTRY

pytestmark = pytest.mark.paper

#: The paper's day-long trace: 2.7 B events over 86,400 seconds.
PAPER_EVENTS_PER_SECOND = 2_700_000_000 / 86_400

#: The registry scale every sweep test runs at.
SCALE = "small"


def test_family_sweep_merge_throughput(capsys):
    """Every family's trace reconstructs faster than the paper's event
    rate (Section 4), read off the cached run's own report: the whole
    pipeline's wall time, not just the merge, so the stricter claim."""
    with capsys.disabled():
        print("\n=== Scenario-family pipeline sweep ===")
    for name in REGISTRY.names():
        report = get_family_run(name, scale=SCALE).report
        records = report.unification.stats.records_in
        rate = records / report.elapsed_seconds
        with capsys.disabled():
            print(
                f"  {name:16s} {records:>8,} records  {rate:>10,.0f} rec/s  "
                f"({rate / PAPER_EVENTS_PER_SECOND:.2f}x the paper's rate)"
            )
        assert records > 0, name
        assert rate > PAPER_EVENTS_PER_SECOND, name


def test_roaming_family_produces_handoffs(capsys):
    """Roamers actually hand off between APs, and the merge keeps group
    dispersion samples flowing under moving vantage points (Fig 4/6)."""
    from repro.core.analysis import dispersion_cdf

    run = get_family_run("roaming", scale=SCALE)
    assert run.artifacts.roam_events, "no AP handoffs in roaming family"
    distinct_roamers = {e.station_index for e in run.artifacts.roam_events}
    assert len(distinct_roamers) >= 2
    cdf = dispersion_cdf(run.report.unification)
    assert cdf.n > 100
    with capsys.disabled():
        print(
            f"\nroaming: {len(run.artifacts.roam_events)} handoffs by "
            f"{len(distinct_roamers)} clients, p99 dispersion "
            f"{cdf.p99_us:.1f} us"
        )


def test_hidden_terminal_family_collides(capsys):
    """The hotspot produces concurrent co-channel transmissions from
    mutually-hidden senders, and protection engages (Fig 9/10)."""
    run = get_family_run("hidden_terminal", scale=SCALE)
    history = run.artifacts.ground_truth
    # Concurrent same-channel data transmissions from distinct senders —
    # the collisions carrier sense failed to prevent.
    overlaps = 0
    for a, b in itertools.pairwise(history):
        if (
            a.channel.number == b.channel.number
            and a.transmitter_id != b.transmitter_id
            and b.start_us < a.end_us
        ):
            overlaps += 1
    assert overlaps > 10, "hotspot produced no concurrent transmissions"
    # 802.11b clients in the clusters force CTS-to-self protection on.
    cts = sum(1 for tx in history if tx.frame.ftype is FrameType.CTS)
    assert cts > 0, "protection never engaged in the hotspot"
    stats = run.report.unification.stats
    assert stats.corrupt_jframes + stats.phy_error_jframes > 0
    with capsys.disabled():
        print(
            f"\nhidden_terminal: {overlaps} concurrent-tx events, "
            f"{cts} CTS-to-self, "
            f"{stats.corrupt_jframes + stats.phy_error_jframes} error jframes"
        )


def test_scanning_family_densifies_references(capsys):
    """Sweeping clients land broadcast probes on every monitored channel —
    extra cross-radio reference anchors for bootstrap (Section 4.1)."""
    run = get_family_run("scanning", scale=SCALE)
    baseline = get_family_run("building", scale=SCALE)
    by_channel = {}
    for tx in run.artifacts.ground_truth:
        if tx.frame.ftype is FrameType.PROBE_REQUEST:
            by_channel[tx.channel.number] = (
                by_channel.get(tx.channel.number, 0) + 1
            )
    assert set(by_channel) == {1, 6, 11}, by_channel
    probes = sum(by_channel.values())
    baseline_probes = sum(
        1
        for tx in baseline.artifacts.ground_truth
        if tx.frame.ftype is FrameType.PROBE_REQUEST
    )
    assert probes > baseline_probes
    assert run.report.bootstrap.fully_synchronized
    with capsys.disabled():
        print(
            f"\nscanning: {probes} broadcast probes across channels "
            f"{sorted(by_channel)} (building baseline: {baseline_probes})"
        )


def test_flash_crowd_family_shows_wave(capsys):
    """The arrival wave concentrates flow starts (and with them the
    activity timeline and TCP-loss burst) around the wave center."""
    run = get_family_run("flash_crowd", scale=SCALE)
    config = run.config
    flows = run.artifacts.flows
    assert flows
    center = config.workload.flash_center
    width = config.workload.flash_width
    in_wave = sum(
        1
        for f in flows
        if abs(f.start_us / config.duration_us - center) < 2 * width
    )
    wave_fraction = in_wave / len(flows)
    window_fraction = 4 * width
    assert wave_fraction > 2 * window_fraction, (
        f"only {wave_fraction:.0%} of flows in the wave window "
        f"({window_fraction:.0%} of the run)"
    )
    with capsys.disabled():
        print(
            f"\nflash_crowd: {len(flows)} flows, {wave_fraction:.0%} "
            f"inside the wave window ({window_fraction:.0%} of the run)"
        )
