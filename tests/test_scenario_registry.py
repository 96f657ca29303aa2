"""The scenario-family matrix: every registered family, tiny scale.

Per the registry contract, each family must (1) build a config at every
scale, (2) produce locally-ordered traces, (3) survive the full pipeline
with all analysis passes registered, (4) be seed-stable — same seed,
identical traces, even after unrelated components are reconfigured — and
(5) hold pipeline parity between materialized and streamed sim ingest.
"""

import pytest

from helpers import fingerprints
from repro.core.analysis import (
    ActivityPass,
    BroadcastAirtimePass,
    DispersionPass,
    InterferencePass,
    ProtectionPass,
    SummaryPass,
    TcpLossPass,
    WiredCoveragePass,
)
from repro.core.pipeline import JigsawPipeline
from repro.core.unify import partition_traces
from repro.sim import REGISTRY, SCALES, run_scenario, scenario_config
from repro.sim.registry import ScenarioRegistry
from repro.sim.stream import stream_scenario

SEED = 17

FAMILIES = REGISTRY.names()

#: Components considered "unrelated" to each family's tentpole behavior —
#: reconfiguring them must not move the family's placements, clocks, or
#: (for roaming) its roam schedule.
UNRELATED_TWEAKS = {
    "building": dict(web_weight=0.1, scp_weight=0.8),
    "roaming": dict(web_weight=0.1, scp_weight=0.8),
    "hidden_terminal": dict(probe_burst=2),
    "scanning": dict(web_weight=0.1, scp_weight=0.8),
    "flash_crowd": dict(probe_burst=2),
    "campus": dict(web_weight=0.1, scp_weight=0.8),
}


def all_passes(config, wired_trace):
    duration = config.duration_us
    bin_us = max(1, duration // 8)
    return [
        ActivityPass(duration, bin_us=bin_us),
        BroadcastAirtimePass(duration),
        DispersionPass(),
        ProtectionPass(
            duration, bin_us=bin_us, practical_timeout_us=duration // 4
        ),
        TcpLossPass(),
        SummaryPass(duration),
        InterferencePass(min_packets=10),
        WiredCoveragePass(wired_trace),
    ]


@pytest.fixture(scope="module", params=FAMILIES)
def family_run(request):
    """One tiny-scale run + all-passes report per registered family."""
    name = request.param
    config = scenario_config(name, scale="tiny", seed=SEED)
    artifacts = run_scenario(config)
    report = JigsawPipeline().run(
        artifacts.radio_traces,
        clock_groups=artifacts.clock_groups(),
        passes=all_passes(config, artifacts.wired_trace),
    )
    return name, config, artifacts, report


class TestFamilyMatrix:
    def test_all_scales_build(self, family_run):
        name, _, _, _ = family_run
        family = REGISTRY.get(name)
        for scale in SCALES:
            config = family.config(scale=scale, seed=SEED)
            assert config.duration_us > 0
            assert config.n_radios >= 4

    def test_traces_locally_ordered(self, family_run):
        _, _, artifacts, _ = family_run
        total = 0
        for trace in artifacts.radio_traces:
            stamps = [r.timestamp_us for r in trace]
            assert stamps == sorted(stamps)
            total += len(stamps)
        assert total > 0

    def test_full_pipeline_with_all_passes(self, family_run):
        name, _, artifacts, report = family_run
        stats = report.unification.stats
        assert stats.jframes > 0, name
        assert stats.records_in == sum(
            len(t) for t in artifacts.radio_traces
        )
        assert (
            stats.instances_unified + stats.records_skipped_unsynchronized
            == stats.records_in
        )
        # Every registered pass surrendered a result.
        expected = {
            "activity",
            "broadcast_airtime",
            "dispersion",
            "protection",
            "tcp_loss",
            "summary",
            "interference",
            "wired_coverage",
        }
        assert expected <= set(report.passes)
        assert report.passes["summary"].jframes == stats.jframes

    def test_seed_stable_and_composition_stable(self, family_run):
        name, config, artifacts, _ = family_run
        # Same seed, same config: bit-identical traces.
        again = run_scenario(config)
        assert [r for t in artifacts.radio_traces for r in t] == [
            r for t in again.radio_traces for r in t
        ]
        # Same seed, an *unrelated* component reconfigured: the world the
        # other components built does not move.
        tweaked = run_scenario(config.with_overrides(**UNRELATED_TWEAKS[name]))
        assert [p.position for p in artifacts.station_placements] == [
            p.position for p in tweaked.station_placements
        ]
        assert [
            clock.offset_us for pod in artifacts.pods for clock in pod.clocks
        ] == [clock.offset_us for pod in tweaked.pods for clock in pod.clocks]
        if name == "roaming":
            assert [
                (e.time_us, e.station_index) for e in artifacts.roam_events
            ] == [(e.time_us, e.station_index) for e in tweaked.roam_events]

    def test_streamed_ingest_pipeline_parity(self, family_run):
        """Materialized sim -> pipeline == streamed sim -> pipeline,
        jframe for jframe, for every family; and the streamed traces'
        declared channels shard the radios as the records do, which the
        daemon's roster partition rests on."""
        name, config, artifacts, batch = family_run
        streamed = stream_scenario(config)

        def shard_ids(traces):
            return [
                [t.radio_id for t in shard] for shard in partition_traces(traces)
            ]

        assert shard_ids(streamed.traces) == shard_ids(artifacts.radio_traces)
        report = JigsawPipeline().run(
            streamed.traces, clock_groups=streamed.clock_groups()
        )
        assert fingerprints(report.jframes) == fingerprints(batch.jframes)
        assert report.unification.stats.jframes == batch.unification.stats.jframes
        assert len(report.flows) == len(batch.flows)


class TestFamilySignals:
    """Each family produces the phenomenon it exists to stress (cheap
    tiny-scale checks; the small-scale versions live in tests/paper)."""

    def test_roaming_hands_off(self):
        artifacts = run_scenario(
            scenario_config("roaming", scale="tiny", seed=SEED)
        )
        assert artifacts.roam_events

    def test_hidden_terminal_clusters_are_mutually_distant(self):
        from repro.phy.propagation import distance_m

        artifacts = run_scenario(
            scenario_config("hidden_terminal", scale="tiny", seed=SEED)
        )
        placements = artifacts.station_placements
        spans = [
            distance_m(a.position, b.position)
            for i, a in enumerate(placements)
            for b in placements[i + 1 :]
        ]
        # Two tight clusters: many pairs far beyond carrier-sense range
        # (~53 m at client power), the rest packed close.
        assert sum(1 for s in spans if s > 53.0) >= len(spans) // 3
        # All clients share the single AP.
        assert len({s.ap.mac for s in artifacts.stations}) == 1

    def test_scanning_probes_all_channels(self):
        from repro.dot11.frame import FrameType

        artifacts = run_scenario(
            scenario_config("scanning", scale="tiny", seed=SEED)
        )
        channels = {
            tx.channel.number
            for tx in artifacts.ground_truth
            if tx.frame.ftype is FrameType.PROBE_REQUEST
        }
        assert channels == {1, 6, 11}

    def test_roaming_composes_with_channel_sweeps(self):
        """Scanning + roaming together: a roam must cancel any in-flight
        sweep (stale dwell callbacks may not drag the radio back off the
        new serving channel), and overlapping rescan ticks may not start
        concurrent sweeps."""
        config = scenario_config(
            "scanning",
            scale="tiny",
            seed=SEED,
            roam_fraction=0.6,
            roam_interval_us=100_000,
            client_rescan_interval_us=120_000,  # shorter than a full sweep
        )
        artifacts = run_scenario(config)
        assert artifacts.roam_events
        for station in artifacts.stations:
            # Either a sweep is legitimately dwelling at the cutoff, or
            # the radio sits on its serving channel.
            assert station._sweep_active or (
                station.channel == station.ap.channel
            )

    def test_flash_crowd_concentrates_arrivals(self):
        config = scenario_config("flash_crowd", scale="tiny", seed=SEED)
        artifacts = run_scenario(config)
        assert artifacts.flows
        center = config.workload.flash_center
        width = config.workload.flash_width
        in_wave = sum(
            1
            for f in artifacts.flows
            if abs(f.start_us / config.duration_us - center) < 2 * width
        )
        # Tiny scale is sparse; demand a clear (1.5x) concentration,
        # tests/paper holds the sharper 2x bound at small scale.
        assert in_wave / len(artifacts.flows) > 1.5 * (4 * width)
        # The arrival wave also compresses association times.
        window = config.behavior.start_window_us
        assert window is not None


class TestRegistryMechanics:
    def test_lookup_errors_are_loud(self):
        with pytest.raises(KeyError, match="no scenario family"):
            REGISTRY.get("nope")
        family = REGISTRY.get("roaming")
        with pytest.raises(ValueError, match="no scale"):
            family.config(scale="galactic")

    def test_duplicate_registration_rejected(self):
        registry = ScenarioRegistry()
        family = REGISTRY.get("building")
        registry.register(family)
        with pytest.raises(ValueError, match="already registered"):
            registry.register(family)

    def test_config_overrides_apply(self):
        config = scenario_config(
            "roaming", scale="tiny", seed=3, n_clients=9
        )
        assert config.n_clients == 9
        assert config.behavior.roam_fraction > 0

    def test_at_least_four_new_families(self):
        assert len(REGISTRY) >= 5  # building + the four new families
        for family in REGISTRY:
            assert family.description and family.paper_focus
            assert family.expectations
