"""The componentized scenario config: routing, validation, composition.

The heart of the refactor is the composition property: every optional
behavior draws from its own ``SeedSequence`` spawn-key stream, so
reconfiguring one component cannot perturb the randomness any other
component consumes.  These tests hold that property observably — same
seed, unrelated component changed, untouched substrates identical.
"""

import numpy as np
import pytest

from repro.sim import (
    ClientBehaviorConfig,
    FleetConfig,
    GeometryConfig,
    ImpairmentConfig,
    ScenarioConfig,
    ScenarioStreams,
    WorkloadConfig,
    generate_flows,
    run_scenario,
)


class TestComponentRouting:
    def test_flat_kwargs_route_into_components(self):
        config = ScenarioConfig(
            floors=2, n_clients=9, microwave=True, web_weight=0.9,
            client_rescan_interval_us=123,
        )
        assert config.geometry.floors == 2
        assert config.fleet.n_clients == 9
        assert config.impairments.microwave is True
        assert config.workload.web_weight == 0.9
        assert config.behavior.rescan_interval_us == 123
        # ... and read back through the legacy flat properties.
        assert config.floors == 2 and config.n_clients == 9
        assert config.microwave and config.client_rescan_interval_us == 123

    def test_component_kwargs_accepted_whole(self):
        config = ScenarioConfig(
            geometry=GeometryConfig(floors=1, aps_per_floor=1, n_pods=2),
            fleet=FleetConfig(n_clients=3),
            behavior=ClientBehaviorConfig(probe_burst=2),
            impairments=ImpairmentConfig(wired_loss_rate=0.0),
            workload=WorkloadConfig(flash_crowd=True),
        )
        assert config.n_aps == 1 and config.n_clients == 3
        assert config.behavior.probe_burst == 2
        assert config.workload.flash_crowd

    def test_flat_override_wins_over_component(self):
        config = ScenarioConfig(
            geometry=GeometryConfig(floors=4), floors=2
        )
        assert config.floors == 2

    def test_named_scale_respects_explicit_component(self):
        geometry = GeometryConfig(floors=3, aps_per_floor=1, n_pods=2)
        config = ScenarioConfig.tiny(geometry=geometry)
        assert config.floors == 3  # not reset to the tiny default of 1
        assert config.n_clients == 4  # other scale defaults still apply

    def test_unknown_kwarg_rejected(self):
        with pytest.raises(TypeError, match="unexpected keyword"):
            ScenarioConfig(not_a_knob=1)

    def test_with_overrides(self):
        base = ScenarioConfig.small(seed=5)
        changed = base.with_overrides(
            workload=WorkloadConfig(flash_crowd=True), n_clients=3
        )
        assert changed.workload.flash_crowd and changed.n_clients == 3
        assert changed.seed == 5 and changed.floors == base.floors


class TestComponentValidation:
    def test_component_validation_surfaces_from_config(self):
        with pytest.raises(ValueError):
            ScenarioConfig(roam_fraction=1.5)
        with pytest.raises(ValueError):
            ScenarioConfig(wired_loss_rate=1.0)
        with pytest.raises(ValueError):
            ScenarioConfig(placement="beach")

    def test_roaming_requires_interval(self):
        with pytest.raises(ValueError, match="roam_interval_us"):
            ClientBehaviorConfig(roam_fraction=0.5)

    def test_workload_weights_must_be_positive(self):
        """The satellite: negative weights and zero-sum mixes fail loudly
        at construction instead of misbehaving downstream."""
        with pytest.raises(ValueError, match="non-negative"):
            WorkloadConfig(web_weight=-0.1)
        with pytest.raises(ValueError, match="sum to a positive value"):
            WorkloadConfig(web_weight=0, ssh_weight=0, scp_weight=0)

    def test_flash_center_must_be_a_run_fraction(self):
        with pytest.raises(ValueError, match="flash_center"):
            WorkloadConfig(flash_crowd=True, flash_center=5.0)
        # Only meaningful with the wave enabled.
        assert WorkloadConfig(flash_center=5.0).flash_peak == 1.0

    def test_workload_weights_normalized_explicitly(self):
        weights = WorkloadConfig(
            web_weight=2.0, ssh_weight=1.0, scp_weight=1.0
        ).archetype_weights()
        assert weights == (0.5, 0.25, 0.25)
        assert sum(weights) == pytest.approx(1.0)


class TestScenarioStreams:
    def test_streams_are_reproducible_and_distinct(self):
        streams = ScenarioStreams(11)
        a = streams.entity("roam", 3).integers(0, 1 << 30, 8)
        b = streams.entity("roam", 3).integers(0, 1 << 30, 8)
        other = streams.entity("roam", 4).integers(0, 1 << 30, 8)
        component = streams.component("arrival").integers(0, 1 << 30, 8)
        assert list(a) == list(b)
        assert list(a) != list(other)
        assert list(a) != list(component)

    def test_streams_match_seedsequence_spawn(self):
        """The spawn-key construction is exactly SeedSequence.spawn."""
        streams = ScenarioStreams(7)
        root = np.random.SeedSequence(7)
        # component key 7 == the 8th child of the root spawn.
        spawned = np.random.default_rng(root.spawn(8)[7])
        assert list(streams.component("roam").integers(0, 1 << 30, 4)) == list(
            spawned.integers(0, 1 << 30, 4)
        )


def _clock_offsets(artifacts):
    return [
        clock.offset_us for pod in artifacts.pods for clock in pod.clocks
    ]


def _positions(placements):
    return [p.position for p in placements]


class TestCompositionStability:
    """Reconfiguring one component leaves the others' randomness intact."""

    def test_same_seed_identical_traces(self):
        a = run_scenario(ScenarioConfig.tiny(seed=21))
        b = run_scenario(ScenarioConfig.tiny(seed=21))
        assert [r for t in a.radio_traces for r in t] == [
            r for t in b.radio_traces for r in t
        ]

    def test_workload_change_leaves_world_untouched(self):
        base = run_scenario(ScenarioConfig.tiny(seed=8))
        tweaked = run_scenario(
            ScenarioConfig.tiny(seed=8, web_weight=0.1, scp_weight=0.8)
        )
        assert _positions(base.station_placements) == _positions(
            tweaked.station_placements
        )
        assert _positions(base.pod_placements) == _positions(
            tweaked.pod_placements
        )
        assert _clock_offsets(base) == _clock_offsets(tweaked)
        assert [ap.mac for ap in base.aps] == [ap.mac for ap in tweaked.aps]

    def test_enabling_roaming_leaves_flows_and_world_untouched(self):
        base_config = ScenarioConfig.tiny(seed=9)
        roam_config = ScenarioConfig.tiny(
            seed=9, roam_fraction=0.5, roam_interval_us=120_000
        )
        assert generate_flows(
            base_config, np.random.default_rng(3)
        ) == generate_flows(roam_config, np.random.default_rng(3))
        base = run_scenario(base_config)
        roamed = run_scenario(roam_config)
        assert base.flows == roamed.flows
        assert _positions(base.station_placements) == _positions(
            roamed.station_placements
        )
        assert _clock_offsets(base) == _clock_offsets(roamed)
        assert roamed.roam_events  # the enabled component actually acted

    def test_workload_change_leaves_roam_schedule_untouched(self):
        """Even a component enabled *on top* keeps its own stream: tweak
        the workload and the roam schedule does not move."""
        a = run_scenario(
            ScenarioConfig.tiny(
                seed=10, roam_fraction=0.5, roam_interval_us=120_000
            )
        )
        b = run_scenario(
            ScenarioConfig.tiny(
                seed=10,
                roam_fraction=0.5,
                roam_interval_us=120_000,
                web_weight=0.05,
                scp_weight=0.9,
            )
        )
        assert [
            (e.time_us, e.station_index, e.position) for e in a.roam_events
        ] == [(e.time_us, e.station_index, e.position) for e in b.roam_events]

    def test_arrival_window_only_moves_start_times(self):
        base = run_scenario(ScenarioConfig.tiny(seed=12))
        waved = run_scenario(
            ScenarioConfig.tiny(seed=12, start_window_us=100_000)
        )
        assert base.flows == waved.flows
        assert _positions(base.station_placements) == _positions(
            waved.station_placements
        )
        assert _clock_offsets(base) == _clock_offsets(waved)


class TestRunCache:
    def test_the_config_alone_keys_the_run_cache(self):
        from repro.experiments import common

        common.clear_cache()
        try:
            base = common.get_run(ScenarioConfig.tiny(seed=3))
            again = common.get_run(ScenarioConfig.tiny(seed=3))
            override = common.get_run(
                ScenarioConfig.tiny(seed=3, duration_us=700_000)
            )
        finally:
            common.clear_cache()
        assert again is base
        assert override is not base
        assert override.config.duration_us == 700_000

    def test_every_experiment_reads_the_one_shared_run(self):
        from repro.experiments import common
        from repro.experiments.fig4_dispersion import run_fig4
        from repro.experiments.fig6_coverage import run_fig6
        from repro.experiments.fig7_pods import run_fig7
        from repro.experiments.fig8_activity import run_fig8
        from repro.experiments.fig9_interference import run_fig9
        from repro.experiments.fig10_protection import run_fig10
        from repro.experiments.fig11_tcploss import run_fig11
        from repro.experiments.table1_summary import run_table1

        common.clear_cache()
        try:
            run = common.get_run(ScenarioConfig.tiny(seed=3))
            results = [
                experiment(run)
                for experiment in (
                    run_fig4, run_fig6, run_fig7, run_fig8, run_fig9,
                    run_fig10, run_fig11, run_table1,
                )
            ]
        finally:
            common.clear_cache()
        assert set(run.report.passes) >= {
            "activity", "broadcast_airtime", "dispersion", "interference",
            "protection", "summary", "tcp_loss", "wired_coverage",
        }
        assert all(result is not None for result in results)
