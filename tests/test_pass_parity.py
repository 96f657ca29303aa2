"""Parity suite: streaming analysis passes == batch report analyses.

Every pass-based analysis must produce results identical to its batch
``JigsawReport`` counterpart — on the small scenario, and with
``materialize=False`` — and equal to the values the pre-rewrite batch
implementations produced, plus the satellites: in-order exchange
emission and the experiment run-cache config fingerprint.
"""

import pytest

from repro.core.analysis import (
    ActivityPass,
    BroadcastAirtimePass,
    DispersionPass,
    InterferencePass,
    ProtectionPass,
    SummaryPass,
    TcpLossPass,
    WiredCoveragePass,
    activity_timeline,
    analyze_protection,
    analyze_tcp_loss,
    broadcast_airtime_share,
    dispersion_cdf,
    estimate_interference,
    summarize,
    wired_coverage,
)
from repro.core.passes import run_passes
from repro.core.pipeline import JigsawPipeline
from repro.sim import ScenarioConfig, run_scenario

MIN_PACKETS = 20


def make_passes(config, wired_trace):
    duration = config.duration_us
    bin_us = duration // 10
    return {
        "activity": ActivityPass(duration, bin_us=bin_us),
        "broadcast_airtime": BroadcastAirtimePass(duration),
        "dispersion": DispersionPass(),
        "protection": ProtectionPass(
            duration, bin_us=bin_us, practical_timeout_us=duration // 8
        ),
        "tcp_loss": TcpLossPass(),
        "summary": SummaryPass(duration),
        "interference": InterferencePass(min_packets=MIN_PACKETS),
        "wired_coverage": WiredCoveragePass(wired_trace),
    }


def batch_results(report, artifacts, config):
    """Every analysis through its classic batch entry point."""
    duration = config.duration_us
    bin_us = duration // 10
    return {
        "activity": activity_timeline(report, duration, bin_us=bin_us),
        "broadcast_airtime": broadcast_airtime_share(report, duration),
        "dispersion": dispersion_cdf(report.unification),
        "protection": analyze_protection(
            report, duration, bin_us=bin_us, practical_timeout_us=duration // 8
        ),
        "tcp_loss": analyze_tcp_loss(report),
        "summary": summarize(report, artifacts.radio_traces, duration),
        "interference": estimate_interference(report, min_packets=MIN_PACKETS),
        "wired_coverage": wired_coverage(artifacts.wired_trace, report.jframes),
    }


def tcploss_projection(result):
    return [
        (
            str(row.flow.key),
            row.data_segments,
            row.wireless_losses,
            row.wired_losses,
            row.unknown_losses,
        )
        for row in result.flows
    ]


def interference_projection(result):
    return result.truncated_pairs, [
        (
            str(p.sender),
            str(p.receiver),
            p.n,
            p.n0,
            p.nl0,
            p.nx,
            p.nlx,
            p.sender_is_ap,
        )
        for p in result.pairs
    ]


def coverage_projection(result):
    return [
        (str(s.station), s.is_ap, s.wired_packets, s.observed_packets)
        for s in result.stations
    ]


def assert_all_equal(streamed, batch):
    """Compare every analysis's streaming result against its batch twin."""
    assert streamed["activity"] == batch["activity"]
    assert streamed["broadcast_airtime"] == batch["broadcast_airtime"]
    assert (
        streamed["dispersion"].samples_us == batch["dispersion"].samples_us
    )
    assert streamed["protection"] == batch["protection"]
    assert tcploss_projection(streamed["tcp_loss"]) == tcploss_projection(
        batch["tcp_loss"]
    )
    assert streamed["summary"] == batch["summary"]
    assert interference_projection(
        streamed["interference"]
    ) == interference_projection(batch["interference"])
    assert coverage_projection(
        streamed["wired_coverage"]
    ) == coverage_projection(batch["wired_coverage"])


@pytest.fixture(scope="module")
def small_setup():
    config = ScenarioConfig.small(
        seed=99, fraction_11b_clients=0.3, client_rescan_interval_us=800_000
    )
    artifacts = run_scenario(config)
    report = JigsawPipeline().run(
        artifacts.radio_traces,
        clock_groups=artifacts.clock_groups(),
        passes=list(make_passes(config, artifacts.wired_trace).values()),
    )
    return config, artifacts, report, batch_results(report, artifacts, config)


class TestStreamingParitySmall:
    def test_inline_passes_match_batch(self, small_setup):
        """Passes driven inside the one-pass loop == batch over the same
        (materialized) report."""
        _, _, report, batch = small_setup
        assert_all_equal(report.passes, batch)
        # Sanity: the scenario exercises every analysis non-trivially.
        assert report.passes["interference"].n_pairs > 0
        assert report.passes["tcp_loss"].n_flows > 0
        assert report.passes["protection"].total_overprotective_aps() >= 0
        assert report.passes["dispersion"].n > 100

    def test_replay_matches_batch(self, small_setup):
        """run_passes over a materialized report == batch entry points."""
        config, artifacts, report, batch = small_setup
        replayed = run_passes(
            report,
            list(make_passes(config, artifacts.wired_trace).values()),
            traces=artifacts.radio_traces,
        )
        assert_all_equal(replayed, batch)

    def test_materialize_false_matches_batch(self, small_setup):
        """A bounded-memory run (no report lists) still matches batch."""
        config, artifacts, _, batch = small_setup
        report = JigsawPipeline().run(
            artifacts.radio_traces,
            clock_groups=artifacts.clock_groups(),
            passes=list(make_passes(config, artifacts.wired_trace).values()),
            materialize=False,
        )
        assert not report.materialized
        assert report.jframes == []
        assert report.attempts == []
        assert report.exchanges == []
        assert len(report.flows) > 0  # flows always survive
        assert_all_equal(report.passes, batch)

    def test_replay_refuses_unmaterialized_report(self, small_setup):
        config, artifacts, _, _ = small_setup
        report = JigsawPipeline().run(
            artifacts.radio_traces,
            clock_groups=artifacts.clock_groups(),
            materialize=False,
        )
        with pytest.raises(ValueError, match="materialize=False"):
            activity_timeline(report, config.duration_us)

    def test_duplicate_pass_names_rejected(self, small_setup):
        config, artifacts, _, _ = small_setup
        with pytest.raises(ValueError, match="duplicate pass name"):
            JigsawPipeline().run(
                artifacts.radio_traces[:2],
                passes=[DispersionPass(), DispersionPass()],
            )

    def test_pass_result_accessor(self, small_setup):
        _, _, report, _ = small_setup
        assert report.pass_result("dispersion") is report.passes["dispersion"]
        with pytest.raises(KeyError, match="no pass named"):
            report.pass_result("nope")


class TestExchangeOrdering:
    def test_feed_emits_in_start_order(self, small_setup):
        """The reorder buffer delivers exchanges sorted by start_us, equal
        to the stable start-time sort of the closure sequence."""
        from repro.core.link.attempt import AttemptAssembler
        from repro.core.link.exchange import ExchangeAssembler

        _, _, report, _ = small_setup
        attempts = AttemptAssembler().assemble(report.jframes)
        assembler = ExchangeAssembler()
        streamed = []
        for attempt in attempts:
            streamed.extend(assembler.feed(attempt))
        streamed.extend(assembler.finish())
        starts = [e.start_us for e in streamed]
        assert starts == sorted(starts)
        assert len(streamed) == assembler.stats.exchanges

    def test_pipeline_exchanges_sorted_without_barrier(self, small_setup):
        _, _, report, _ = small_setup
        starts = [e.start_us for e in report.exchanges]
        assert starts == sorted(starts)

    def test_silent_sender_does_not_stall_emission(self, small_setup):
        """An abandoned open exchange (sender never transmits again) must
        not pin the reorder buffer: once the feed watermark passes it by
        horizon + slack it is stale-closed and emission resumes."""
        from repro.core.link.attempt import AttemptAssembler
        from repro.core.link.exchange import (
            EXCHANGE_REORDER_SLACK_US,
            ExchangeAssembler,
        )

        _, _, report, _ = small_setup
        attempts = AttemptAssembler().assemble(report.jframes)
        # Find a sender with an early unicast data attempt, then feed only
        # that one attempt followed by every *other* sender's attempts.
        lead = next(
            a for a in attempts if a.has_data and not a.is_broadcast
        )
        rest = [a for a in attempts if a.transmitter != lead.transmitter]
        assembler = ExchangeAssembler()
        emitted = list(assembler.feed(lead))
        horizon_span = (
            lead.start_us
            + assembler.horizon_us
            + EXCHANGE_REORDER_SLACK_US
        )
        # Emission lag is bounded by a few horizons (stale sweep cadence +
        # reorder slack), so give the feed that much headroom past the
        # point the lead exchange goes stale.
        for attempt in rest:
            emitted.extend(assembler.feed(attempt))
            if attempt.start_us > (
                horizon_span
                + EXCHANGE_REORDER_SLACK_US
                + assembler.horizon_us
            ):
                break
        # The silent sender's exchange was stale-closed and emitted — the
        # buffer did not stall behind it.
        assert any(
            e.transmitter == lead.transmitter for e in emitted
        ), "abandoned open exchange stalled the reorder buffer"


class TestRunCacheFingerprint:
    def test_config_overrides_get_distinct_cache_entries(self):
        from repro.experiments import common

        common.clear_cache()
        try:
            base = common.get_run(
                "parity-cache", lambda: ScenarioConfig.tiny(seed=3), seed=3
            )
            override = common.get_run(
                "parity-cache",
                lambda: ScenarioConfig.tiny(seed=3, duration_us=700_000),
                seed=3,
            )
            again = common.get_run(
                "parity-cache", lambda: ScenarioConfig.tiny(seed=3), seed=3
            )
        finally:
            common.clear_cache()
        assert base is not override
        assert override.config.duration_us == 700_000
        assert again is base  # identical config still hits the cache


#: Reference values computed by the PRE-REWRITE batch implementations
#: (git HEAD before the pass API, commit fdd8ab5) on the exact scenario
#: `small_setup` builds.  The pass rewrites must reproduce them bit for
#: bit — this pins the old semantics independently of the wrappers,
#: which now share code with the passes.
PRE_REWRITE_GOLDEN = {
    "jframes": 4904,
    "events_per_jframe": 6.168433931484502,
    "unique_clients": 12,
    "unique_aps": 8,
    "attempts": 2187,
    "exchanges": 2072,
    "tcp_flows": 12,
    "handshakes": 12,
    "dispersion_n": 4861,
    "dispersion_sum": 19853.209071661142,
    "active_clients_series": [2, 10, 7, 5, 9, 3, 9, 7, 3, 10],
    "active_aps_series": [0, 3, 3, 2, 2, 3, 2, 3, 1, 1],
    "data_bytes_total": 130410,
    "beacon_frames_total": 236,
    "airtime": {1: 0.054248, 6: 0.027653333333333332,
                11: 0.028797333333333335},
    "protecting_series": [0, 2, 2, 1, 1, 2, 1, 2, 1, 0],
    "overprotective_series": [0, 0, 0, 1, 1, 2, 1, 2, 1, 0],
    "affected_series": [0, 0, 0, 1, 1, 2, 2, 3, 1, 0],
    "b_clients": 4,
    "g_clients": 8,
    "interference_truncated": 0,
    "interference_pairs": [
        ("02:0a:0a:00:00:04", "02:0c:0c:00:00:06", 30, 24, 0, 6, 0, True),
        ("02:0a:0a:00:00:05", "02:0c:0c:00:00:05", 371, 356, 0, 15, 2, True),
        ("02:0a:0a:00:00:07", "02:0c:0c:00:00:02", 48, 44, 1, 4, 2, True),
        ("02:0a:0a:00:00:07", "02:0c:0c:00:00:03", 38, 36, 0, 2, 0, True),
        ("02:0a:0a:00:00:07", "02:0c:0c:00:00:04", 208, 194, 0, 14, 0, True),
        ("02:0a:0a:00:00:08", "02:0c:0c:00:00:09", 66, 61, 0, 5, 0, True),
        ("02:0a:0a:00:00:08", "02:0c:0c:00:00:0a", 22, 17, 0, 5, 0, True),
        ("02:0c:0c:00:00:02", "02:0a:0a:00:00:07", 42, 41, 0, 1, 0, False),
        ("02:0c:0c:00:00:03", "02:0a:0a:00:00:07", 35, 34, 0, 1, 0, False),
        ("02:0c:0c:00:00:04", "02:0a:0a:00:00:07", 209, 209, 0, 0, 0, False),
        ("02:0c:0c:00:00:05", "02:0a:0a:00:00:05", 351, 344, 0, 7, 0, False),
        ("02:0c:0c:00:00:06", "02:0a:0a:00:00:04", 21, 21, 0, 0, 0, False),
        ("02:0c:0c:00:00:09", "02:0a:0a:00:00:08", 64, 62, 0, 2, 0, False),
    ],
    "loss_rows": [
        ("10.0.0.11:40000 <-> 172.16.0.2:80", 3, 0, 0, 0),
        ("10.0.0.3:40000 <-> 172.16.0.1:80", 29, 0, 0, 0),
        ("10.0.0.5:40000 <-> 172.16.0.3:22", 345, 0, 2, 0),
        ("10.0.0.4:40000 <-> 172.16.0.4:80", 2, 0, 0, 0),
        ("10.0.0.2:40000 <-> 172.16.0.5:80", 12, 0, 0, 0),
        ("10.0.0.4:40001 <-> 172.16.0.6:22", 197, 0, 0, 0),
        ("10.0.0.9:40000 <-> 172.16.0.7:22", 46, 0, 0, 0),
        ("10.0.0.9:40001 <-> 172.16.0.8:80", 1, 0, 0, 0),
        ("10.0.0.10:40000 <-> 172.16.0.9:22", 13, 0, 0, 0),
        ("10.0.0.6:40000 <-> 172.16.0.10:80", 21, 0, 0, 0),
        ("10.0.0.9:40002 <-> 172.16.0.11:80", 4, 0, 0, 0),
        ("10.0.0.2:40001 <-> 172.16.0.12:22", 23, 0, 0, 0),
    ],
    "coverage_rows": [
        ("02:0a:0a:00:00:03", True, 6, 6),
        ("02:0a:0a:00:00:04", True, 24, 24),
        ("02:0a:0a:00:00:05", True, 362, 362),
        ("02:0a:0a:00:00:07", True, 274, 273),
        ("02:0a:0a:00:00:08", True, 76, 76),
        ("02:0c:0c:00:00:02", False, 40, 40),
        ("02:0c:0c:00:00:03", False, 33, 33),
        ("02:0c:0c:00:00:04", False, 207, 207),
        ("02:0c:0c:00:00:05", False, 366, 349),
        ("02:0c:0c:00:00:06", False, 25, 19),
        ("02:0c:0c:00:00:09", False, 63, 63),
        ("02:0c:0c:00:00:0a", False, 17, 17),
        ("02:0c:0c:00:00:0b", False, 7, 5),
    ],
}


class TestPreRewriteGolden:
    """Pin the pass rewrites against the deleted batch implementations.

    The wrappers now replay the very pass classes under test, so the
    streaming-vs-batch comparisons above cannot catch semantic drift
    introduced by the rewrite itself; these values were captured from
    the pre-rewrite code on a fixed seed.
    """

    def test_results_match_pre_rewrite_implementations(self, small_setup):
        _, _, report, _ = small_setup
        g = PRE_REWRITE_GOLDEN
        summary = report.passes["summary"]
        assert summary.jframes == g["jframes"]
        assert summary.events_per_jframe == pytest.approx(
            g["events_per_jframe"]
        )
        assert summary.unique_clients == g["unique_clients"]
        assert summary.unique_aps == g["unique_aps"]
        assert summary.transmission_attempts == g["attempts"]
        assert summary.frame_exchanges == g["exchanges"]
        assert summary.tcp_flows == g["tcp_flows"]
        assert summary.completed_handshakes == g["handshakes"]

        cdf = report.passes["dispersion"]
        assert cdf.n == g["dispersion_n"]
        assert sum(cdf.samples_us) == pytest.approx(g["dispersion_sum"])

        timeline = report.passes["activity"]
        assert [
            b.n_active_clients for b in timeline.bins
        ] == g["active_clients_series"]
        assert [b.n_active_aps for b in timeline.bins] == g["active_aps_series"]
        assert sum(b.data_bytes for b in timeline.bins) == g["data_bytes_total"]
        assert (
            sum(b.beacon_frames for b in timeline.bins)
            == g["beacon_frames_total"]
        )
        assert report.passes["broadcast_airtime"] == pytest.approx(g["airtime"])

        protection = report.passes["protection"]
        assert [
            len(b.protecting_aps) for b in protection.bins
        ] == g["protecting_series"]
        assert [
            b.n_overprotective for b in protection.bins
        ] == g["overprotective_series"]
        assert [
            b.n_affected_g_clients for b in protection.bins
        ] == g["affected_series"]
        assert len(protection.b_clients) == g["b_clients"]
        assert len(protection.g_clients) == g["g_clients"]

        truncated, pairs = interference_projection(
            report.passes["interference"]
        )
        assert truncated == g["interference_truncated"]
        assert pairs == g["interference_pairs"]
        assert tcploss_projection(report.passes["tcp_loss"]) == g["loss_rows"]
        assert coverage_projection(
            report.passes["wired_coverage"]
        ) == g["coverage_rows"]
