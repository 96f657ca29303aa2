"""End-to-end tests for the Jigsaw pipeline on simulated deployments."""

import pytest

from repro.core import JigsawPipeline
from repro.core.sync.bootstrap import bootstrap_synchronization
from repro.core.unify.unifier import Unifier
from repro.jtrace import read_traces, write_traces
from repro.sim import ScenarioConfig, run_scenario


@pytest.fixture(scope="module")
def pipelined():
    artifacts = run_scenario(ScenarioConfig.small(seed=314))
    report = JigsawPipeline().run(
        artifacts.radio_traces, clock_groups=artifacts.clock_groups()
    )
    return artifacts, report


class TestPipelineEndToEnd:
    def test_bootstrap_synchronizes_fleet(self, pipelined):
        _, report = pipelined
        assert report.bootstrap.fully_synchronized

    def test_stage_counts_consistent(self, pipelined):
        _, report = pipelined
        stats = report.unification.stats
        assert stats.jframes == len(report.jframes)
        assert report.exchange_stats.exchanges == len(report.exchanges)
        assert stats.instances_unified <= stats.records_in

    def test_exchanges_time_ordered(self, pipelined):
        _, report = pipelined
        starts = [e.start_us for e in report.exchanges]
        assert starts == sorted(starts)

    def test_delivery_verdicts_against_oracle(self, pipelined):
        """Exchange delivery must agree with the simulator's ground truth
        for the overwhelming majority of unicast data exchanges."""
        artifacts, report = pipelined
        hist = artifacts.ground_truth
        truth_acked = {}
        for i, tx in enumerate(hist):
            if tx.frame.ftype.value == "data" and tx.frame.addr1.is_unicast:
                acked = any(
                    later.frame.ftype.value == "ack"
                    and later.frame.addr1 == tx.frame.addr2
                    and 0 <= later.start_us - tx.end_us < 50
                    for later in hist[i + 1 : i + 10]
                )
                truth_acked[tx.txid] = acked
        agree = disagree = 0
        for exchange in report.exchanges:
            if exchange.data_jframe is None or exchange.is_broadcast:
                continue
            txids = [
                a.data.truth_txid() for a in exchange.attempts if a.data
            ]
            if not txids or txids[-1] not in truth_acked:
                continue
            if exchange.delivered is None:
                continue
            if exchange.delivered == truth_acked[txids[-1]]:
                agree += 1
            else:
                disagree += 1
        assert agree > 100
        assert disagree / max(1, agree + disagree) < 0.02

    def test_inference_rate_small(self, pipelined):
        """The paper: 0.58% of attempts / 0.14% of exchanges need
        inference — ours must be in the same 'rare' regime."""
        _, report = pipelined
        stats = report.exchange_stats
        assert stats.exchanges_needing_inference / max(1, stats.exchanges) < 0.25

    def test_flows_reconstructed(self, pipelined):
        artifacts, report = pipelined
        assert len(report.completed_flows()) >= len(artifacts.flows) * 0.5

    def test_summary_text(self, pipelined):
        _, report = pipelined
        text = report.summary()
        assert "jframes" in text and "flows" in text

    def test_precomputed_bootstrap_reused(self, pipelined):
        artifacts, report = pipelined
        again = JigsawPipeline().run(
            artifacts.radio_traces, bootstrap=report.bootstrap
        )
        assert again.unification.stats.jframes == pytest.approx(
            report.unification.stats.jframes, rel=0.01
        )

    def test_pipeline_from_trace_files(self, pipelined, tmp_path):
        artifacts, report = pipelined
        write_traces(artifacts.radio_traces, tmp_path)
        loaded = read_traces(tmp_path)
        replayed = JigsawPipeline().run(
            loaded, clock_groups=artifacts.clock_groups()
        )
        assert replayed.unification.stats.jframes == report.unification.stats.jframes
        assert len(replayed.flows) == len(report.flows)

    def test_custom_unifier_settings(self, pipelined):
        artifacts, _ = pipelined
        report = JigsawPipeline(
            unifier=Unifier(search_window_us=5_000, resync_threshold_us=5.0)
        ).run(artifacts.radio_traces, clock_groups=artifacts.clock_groups())
        assert report.unification.stats.jframes > 0


class TestIngestHealth:
    def test_decode_health_survives_the_local_time_sort(self, tmp_path):
        """A strictly read file with two records out of local-time order
        still reports every record it decoded in the run's health."""
        artifacts = run_scenario(ScenarioConfig.tiny(seed=3))
        records = max(artifacts.radio_traces, key=len).records
        i = next(
            i for i in range(len(records) - 1)
            if records[i].timestamp_us < records[i + 1].timestamp_us
        )
        records[i], records[i + 1] = records[i + 1], records[i]
        write_traces(artifacts.radio_traces, tmp_path)
        traces = read_traces(tmp_path)
        report = JigsawPipeline().run(
            traces, clock_groups=artifacts.clock_groups()
        )
        decoded = sum(len(t) for t in traces)
        assert decoded == sum(len(t) for t in artifacts.radio_traces)
        assert report.health.ingest.records_decoded == decoded


class TestExchangeRefTrimming:
    def test_materialized_run_keeps_exchange_refs(self, pipelined):
        _, report = pipelined
        segmented = [f for f in report.flows if f.observations]
        assert segmented
        assert all(
            obs.exchange is not None
            for f in segmented
            for obs in f.observations
        )

    def test_streaming_run_trims_exchange_refs(self, pipelined):
        artifacts, batch = pipelined
        report = JigsawPipeline().run(
            artifacts.radio_traces,
            clock_groups=artifacts.clock_groups(),
            materialize=False,
        )
        assert all(
            obs.exchange is None
            for f in report.flows
            for obs in f.observations
        )
        # Trimming happens after inference: verdict-derived state matches
        # the materialized run exactly.
        assert [
            (str(f.key), f.handshake_complete, len(f.loss_events))
            for f in report.flows
        ] == [
            (str(f.key), f.handshake_complete, len(f.loss_events))
            for f in batch.flows
        ]


class TestPartitionBehaviour:
    def test_sparse_fleet_partitions_or_degrades(self):
        """Keep only 2 pods far apart: bootstrap should partition (the
        paper's 10-pod failure mode) or at minimum lose radios."""
        artifacts = run_scenario(ScenarioConfig.small(seed=77))
        order = artifacts.pod_reduction_order()
        keep = [order[-1], order[0]]
        radios = set(artifacts.radios_of_pods(keep))
        traces = [t for t in artifacts.radio_traces if t.radio_id in radios]
        groups = [
            g for g in artifacts.clock_groups() if all(r in radios for r in g)
        ]
        bootstrap = bootstrap_synchronization(
            traces, clock_groups=groups, auto_widen=False
        )
        report = JigsawPipeline().run(
            traces, clock_groups=groups, bootstrap=bootstrap
        )
        # Either partitioned, or fully synced via shared frames — both are
        # legitimate; what may not happen is records silently vanishing.
        stats = report.unification.stats
        assert stats.records_in == sum(len(t) for t in traces)
        assert (
            stats.instances_unified + stats.records_skipped_unsynchronized
            == stats.records_in
        )


class TestOneThread:
    """The library is single-threaded: no module may import a
    concurrency primitive, and file ingest through the full pipeline
    starts no thread."""

    BANNED = frozenset(
        {"threading", "_thread", "queue", "multiprocessing", "concurrent",
         "asyncio"}
    )

    def test_no_module_imports_concurrency(self):
        import ast
        from pathlib import Path

        import repro

        offenders = []
        for path in sorted(Path(repro.__file__).parent.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    names = [node.module or ""]
                else:
                    continue
                offenders += [
                    (path.name, node.lineno, name)
                    for name in names
                    if name.split(".")[0] in self.BANNED
                ]
        assert offenders == []

    def test_file_ingest_starts_no_thread(self, tmp_path, pipelined):
        import threading

        from repro.jtrace import open_trace_streams

        artifacts, _ = pipelined
        write_traces(artifacts.radio_traces, tmp_path)
        before = threading.active_count()
        streams = open_trace_streams(tmp_path)
        for stream in streams:
            stream.ensure_index(0)
        assert threading.active_count() == before
        JigsawPipeline().run(
            streams, clock_groups=artifacts.clock_groups(), materialize=False
        )
        assert threading.active_count() == before
