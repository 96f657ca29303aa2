"""Parity suite: the analysis passes on the one reconstruction pass.

A ``materialize=False`` run's pass results must equal the materialized
run's, and both must equal the values the pre-rewrite batch
implementations produced; plus in-order exchange emission.
"""

import pytest

from helpers import small_passes
from repro.core.analysis import DispersionPass, identify_stations
from repro.core.pipeline import JigsawPipeline


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


def assert_all_equal(streamed, materialized):
    """Compare every analysis's result across the two runs."""
    assert streamed["activity"] == materialized["activity"]
    assert streamed["broadcast_airtime"] == materialized["broadcast_airtime"]
    assert (
        streamed["dispersion"].samples_us
        == materialized["dispersion"].samples_us
    )
    assert streamed["protection"] == materialized["protection"]
    assert tcploss_projection(streamed["tcp_loss"]) == tcploss_projection(
        materialized["tcp_loss"]
    )
    assert streamed["summary"] == materialized["summary"]
    assert interference_projection(
        streamed["interference"]
    ) == interference_projection(materialized["interference"])
    assert coverage_projection(
        streamed["wired_coverage"]
    ) == coverage_projection(materialized["wired_coverage"])


class TestStreamingParitySmall:
    def test_inline_passes_match_batch(self, small_run):
        """Passes driven inside the one-pass loop agree with the lists the
        same (materialized) report holds."""
        _, _, report = small_run
        passes = report.passes
        assert (
            passes["dispersion"].samples_us
            == report.unification.dispersions_us()
        )
        summary = passes["summary"]
        assert summary.jframes == len(report.jframes)
        assert summary.transmission_attempts == len(report.attempts)
        assert summary.frame_exchanges == len(report.exchanges)
        assert summary.tcp_flows == len(report.flows)
        clients, aps = identify_stations(report)
        assert (summary.unique_clients, summary.unique_aps) == (
            len(clients),
            len(aps),
        )
        # Sanity: the scenario exercises every analysis non-trivially.
        assert passes["interference"].n_pairs > 0
        assert passes["tcp_loss"].n_flows > 0
        assert passes["protection"].total_overprotective_aps() >= 0
        assert passes["dispersion"].n > 100

    def test_materialize_false_matches_batch(self, small_run):
        """A bounded-memory run (no report lists) yields the same pass
        results as the materialized run."""
        config, artifacts, materialized = small_run
        report = JigsawPipeline().run(
            artifacts.radio_traces,
            clock_groups=artifacts.clock_groups(),
            passes=small_passes(config, artifacts.wired_trace),
            materialize=False,
        )
        assert not report.materialized
        assert report.jframes == []
        assert report.attempts == []
        assert report.exchanges == []
        assert len(report.flows) > 0  # flows always survive
        assert_all_equal(report.passes, materialized.passes)

    def test_duplicate_pass_names_rejected(self, small_run):
        _, artifacts, _ = small_run
        with pytest.raises(ValueError, match="duplicate pass name"):
            JigsawPipeline().run(
                artifacts.radio_traces[:2],
                passes=[DispersionPass(), DispersionPass()],
            )

    def test_pass_result_accessor(self, small_run):
        _, _, report = small_run
        assert report.pass_result("dispersion") is report.passes["dispersion"]
        with pytest.raises(KeyError, match="no pass named"):
            report.pass_result("nope")


class TestExchangeOrdering:
    def test_feed_emits_in_start_order(self, small_run):
        """The reorder buffer delivers exchanges sorted by start_us, equal
        to the stable start-time sort of the closure sequence."""
        from repro.core.link.attempt import AttemptAssembler
        from repro.core.link.exchange import ExchangeAssembler

        _, _, report = small_run
        attempts = AttemptAssembler().assemble(report.jframes)
        assembler = ExchangeAssembler()
        streamed = []
        for attempt in attempts:
            streamed.extend(assembler.feed(attempt))
        streamed.extend(assembler.finish())
        starts = [e.start_us for e in streamed]
        assert starts == sorted(starts)
        assert len(streamed) == assembler.stats.exchanges

    def test_pipeline_exchanges_sorted_without_barrier(self, small_run):
        _, _, report = small_run
        starts = [e.start_us for e in report.exchanges]
        assert starts == sorted(starts)

    def test_silent_sender_does_not_stall_emission(self, small_run):
        """An abandoned open exchange (sender never transmits again) must
        not pin the reorder buffer: once the feed watermark passes it by
        horizon + slack it is stale-closed and emission resumes."""
        from repro.core.link.attempt import AttemptAssembler
        from repro.core.link.exchange import (
            EXCHANGE_HORIZON_US,
            EXCHANGE_REORDER_SLACK_US,
            ExchangeAssembler,
        )

        _, _, report = small_run
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
            + EXCHANGE_HORIZON_US
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
                + EXCHANGE_HORIZON_US
            ):
                break
        # The silent sender's exchange was stale-closed and emitted — the
        # buffer did not stall behind it.
        assert any(
            e.transmitter == lead.transmitter for e in emitted
        ), "abandoned open exchange stalled the reorder buffer"


#: Reference values computed by the PRE-REWRITE batch implementations
#: (git HEAD before the pass API, commit fdd8ab5) on the exact scenario
#: and analysis settings `small_run` uses.  The passes must reproduce
#: them bit for bit — this pins the old semantics independently of the
#: pass code itself.
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
    """Pin the passes against the deleted batch implementations.

    The run-vs-run comparison above cannot catch semantic drift shared
    by both runs; these values were captured from the pre-rewrite code
    on a fixed seed.
    """

    def test_results_match_pre_rewrite_implementations(self, small_run):
        _, _, report = small_run
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
