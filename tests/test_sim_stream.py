"""Streaming sim -> pipeline ingest: bit parity with the materialized path.

``stream_scenario`` must feed ``JigsawPipeline.run`` through the same
single-read ``RadioTrace`` batch source trace files use, producing
output bit-identical — jframe for jframe — to materializing the run with
``run_scenario`` and piping the traces in afterwards.  The family matrix
(``tests/test_scenario_registry.py``) holds the same parity on every
registered family.
"""

import pytest

from helpers import assert_reports_identical
from repro.core.pipeline import JigsawPipeline
from repro.core.unify import partition_traces
from repro.jtrace.io import RadioTrace
from repro.sim import ScenarioConfig, run_scenario
from repro.sim.stream import stream_scenario


class TestStreamedScenario:
    @pytest.fixture(scope="class")
    def small_pair(self):
        config = ScenarioConfig.small(seed=42)
        artifacts = run_scenario(config)
        batch = JigsawPipeline().run(
            artifacts.radio_traces, clock_groups=artifacts.clock_groups()
        )
        streamed = stream_scenario(config)
        report = JigsawPipeline().run(
            streamed.traces, clock_groups=streamed.clock_groups()
        )
        return artifacts, batch, streamed, report

    def test_small_scenario_bit_parity(self, small_pair):
        _, batch, _, report = small_pair
        assert_reports_identical(report, batch)

    def test_traces_are_streaming_readers(self, small_pair):
        """Each trace reads a source: nothing is simulated until a
        consumer pulls, and a pull runs a slice, not the whole run."""
        _, _, streamed, _ = small_pair
        assert all(isinstance(t, RadioTrace) for t in streamed.traces)
        fresh = stream_scenario(streamed.config)
        assert not any(t.replay_buffer for t in fresh.traces)
        first = fresh.traces[0]
        assert first.ensure_index(0)
        assert 0 < len(first.replay_buffer) < len(streamed.traces[0])

    def test_record_ownership_moves_to_readers(self, small_pair):
        """A streamed run keeps one copy of the trace: the radios are
        drained, the consuming readers hold the records."""
        artifacts, _, streamed, _ = small_pair
        streamed_artifacts = streamed.artifacts()
        assert all(len(t) == 0 for t in streamed_artifacts.radio_traces)
        assert sum(len(t) for t in streamed.traces) == sum(
            len(t) for t in artifacts.radio_traces
        )

    def test_oracle_survives_streaming(self, small_pair):
        artifacts, _, streamed, _ = small_pair
        oracle = streamed.artifacts()
        assert len(oracle.ground_truth) == len(artifacts.ground_truth)
        assert len(oracle.flow_outcomes) == len(artifacts.flow_outcomes)
        assert len(oracle.wired_trace) == len(artifacts.wired_trace)

    def test_artifacts_completes_undrained_run(self):
        """artifacts() finishes the simulation even if nothing consumed
        the streaming traces."""
        streamed = stream_scenario(ScenarioConfig.tiny(seed=3))
        oracle = streamed.artifacts()
        assert oracle.events_run > 0
        assert oracle.ground_truth
        assert streamed._world.kernel.now_us == oracle.config.duration_us


class TestLazyExecution:
    def test_bootstrap_prefix_advances_sim_partially(self):
        """Pulling only a window prefix simulates only (roughly) that
        window — the overlap the fused prepass exists for."""
        config = ScenarioConfig.small(seed=9)
        streamed = stream_scenario(config, chunk_us=100_000)
        trace = streamed.traces[0]
        first = trace.first_timestamp_us
        assert first is not None
        trace.buffered_until(first + 200_000)
        now = streamed._world.kernel.now_us
        assert 0 < now < config.duration_us, now

    def test_shard_partition_runs_none_of_the_simulation(self):
        """Each streamed trace declares its radio's channel, so
        partitioning the shards reads no record."""
        config = ScenarioConfig.small(seed=9)
        streamed = stream_scenario(config, chunk_us=100_000)
        assert partition_traces(streamed.traces)
        assert streamed._world.kernel.now_us == 0

    def test_chunk_must_be_positive(self):
        with pytest.raises(ValueError, match="chunk_us"):
            stream_scenario(ScenarioConfig.tiny(), chunk_us=0)
