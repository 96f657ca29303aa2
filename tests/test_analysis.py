"""Tests for the Section 6/7 analysis modules, on the shared small run
(``small_run`` in conftest.py), whose passes the report carries."""

import pytest

from repro.core.analysis import identify_stations, oracle_coverage
from repro.core.analysis.dispersion import DispersionCdf


class TestIdentifyStations:
    def test_aps_and_clients_split(self, small_run):
        config, artifacts, report = small_run
        clients, aps = identify_stations(report)
        true_aps = {ap.mac for ap in artifacts.aps}
        true_clients = {sta.mac for sta in artifacts.stations}
        assert aps <= true_aps
        assert clients <= true_clients
        assert len(aps) > 0 and len(clients) > 0
        assert not (clients & aps)


class TestSummary:
    def test_counts_consistent(self, small_run):
        config, artifacts, report = small_run
        summary = report.passes["summary"]
        assert summary.total_events == sum(
            len(t) for t in artifacts.radio_traces
        )
        assert summary.jframes == report.unification.stats.jframes
        assert 0 < summary.error_event_fraction < 1
        assert summary.events_per_jframe > 1

    def test_format_table(self, small_run):
        config, artifacts, report = small_run
        summary = report.passes["summary"]
        text = summary.format_table()
        assert "Raw events" in text and "jframes" in text.lower()


class TestDispersion:
    def test_cdf_monotone(self, small_run):
        _, _, report = small_run
        cdf = report.passes["dispersion"]
        points = cdf.cdf_points()
        fractions = [y for _, y in points]
        assert fractions == sorted(fractions)
        assert points[-1][1] == 1.0

    def test_percentiles_ordered(self, small_run):
        _, _, report = small_run
        cdf = report.passes["dispersion"]
        assert cdf.p50_us <= cdf.p90_us <= cdf.p99_us

    def test_empty_cdf(self):
        cdf = DispersionCdf(samples_us=[])
        assert cdf.p90_us == 0.0
        assert cdf.fraction_below(10) == 0.0
        assert cdf.cdf_points() == []


class TestActivity:
    def test_bins_cover_duration(self, small_run):
        config, _, report = small_run
        timeline = report.passes["activity"]
        assert timeline.bin_us == config.duration_us // 10
        assert len(timeline.bins) == 10

    def test_beacons_in_every_bin(self, small_run):
        _, _, report = small_run
        timeline = report.passes["activity"]
        assert all(b.beacon_frames > 0 for b in timeline.bins)

    def test_active_clients_detected(self, small_run):
        _, _, report = small_run
        assert report.passes["activity"].peak_clients() > 0

    def test_broadcast_airtime_positive(self, small_run):
        _, _, report = small_run
        share = report.passes["broadcast_airtime"]
        assert share
        assert all(0 < s < 1 for s in share.values())


class TestCoverageAnalysis:
    def test_wired_coverage_bounds(self, small_run):
        _, _, report = small_run
        result = report.passes["wired_coverage"]
        assert 0 <= result.overall() <= 1
        for station in result.stations:
            assert 0 <= station.coverage <= 1
            assert station.observed_packets <= station.wired_packets

    def test_both_kinds_of_stations_present(self, small_run):
        _, _, report = small_run
        result = report.passes["wired_coverage"]
        kinds = {s.is_ap for s in result.stations}
        assert kinds == {True, False}

    def test_oracle_coverage(self, small_run):
        _, artifacts, _ = small_run
        result = oracle_coverage(artifacts, artifacts.stations[0].mac)
        assert 0 <= result.coverage <= 1
        assert result.transmitted > 0


class TestInterferenceAnalysis:
    def test_estimator_formula(self):
        from repro.core.analysis.interference import PairInterference
        from repro.dot11.address import MacAddress

        pair = PairInterference(
            sender=MacAddress(1), receiver=MacAddress(2),
            n=200, n0=100, nl0=10, nx=100, nlx=40,
        )
        # P_i = (0.4 - 0.1) / (1 - 0.1) = 1/3 ; X = P_i * nx/n = 1/6.
        assert pair.p_interference == pytest.approx(1 / 3)
        assert pair.interference_loss_rate == pytest.approx(1 / 6)

    def test_negative_pi_truncated_in_rate(self):
        from repro.core.analysis.interference import PairInterference
        from repro.dot11.address import MacAddress

        pair = PairInterference(
            sender=MacAddress(1), receiver=MacAddress(2),
            n=200, n0=100, nl0=20, nx=100, nlx=5,
        )
        assert pair.p_interference < 0
        assert pair.interference_loss_rate == 0.0

    def test_no_simultaneous_returns_none(self):
        from repro.core.analysis.interference import PairInterference
        from repro.dot11.address import MacAddress

        pair = PairInterference(
            sender=MacAddress(1), receiver=MacAddress(2),
            n=100, n0=100, nl0=5, nx=0, nlx=0,
        )
        assert pair.p_interference is None

    def test_end_to_end(self, small_run):
        _, _, report = small_run
        result = report.passes["interference"]
        assert result.n_pairs > 0
        for pair in result.pairs:
            assert pair.n == pair.n0 + pair.nx
            assert 0 <= pair.interference_loss_rate <= 1


class TestProtectionAnalysis:
    def test_b_and_g_clients_found(self, small_run):
        _, _, report = small_run
        result = report.passes["protection"]
        assert result.b_clients
        assert result.g_clients

    def test_protection_detected_with_11b_present(self, small_run):
        _, _, report = small_run
        result = report.passes["protection"]
        assert any(b.protecting_aps for b in result.bins)

    def test_affected_fraction_bounded(self, small_run):
        _, _, report = small_run
        result = report.passes["protection"]
        assert 0.0 <= result.peak_affected_fraction() <= 1.0


class TestTcpLossAnalysis:
    def test_rates_bounded(self, small_run):
        _, _, report = small_run
        result = report.passes["tcp_loss"]
        assert result.n_flows > 0
        for row in result.flows:
            assert 0 <= row.loss_rate <= 1
        wireless, wired, unknown = result.aggregate_rates()
        assert 0 <= wireless + wired + unknown <= 1

    def test_cdf_sorted(self, small_run):
        _, _, report = small_run
        result = report.passes["tcp_loss"]
        xs = result.loss_rate_cdf()
        assert xs == sorted(xs)
