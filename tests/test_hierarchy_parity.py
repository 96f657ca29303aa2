"""Sharded merge on campus input: the (building, channel) partition.

:class:`~repro.core.unify.unifier.Unifier` merges the shards of
``partition_traces`` — (building, channel) leaves on stamped campus
input, channel shards on legacy input — with one in-process engine per
shard under one stable k-way reduce.  This suite holds what the
partition promises over input stamping x fault state: re-running the
merge reproduces it exactly, locality leaves confine headless
attachment, the live daemon (which shards through the same
``partition_traces``) emits the batch merge's jframes, and an
auto-widened bootstrap equals a from-scratch collection at its final
window.
"""

import pytest

from repro.core.sync.bootstrap import bootstrap_synchronization
from repro.core.unify import Unifier, partition_traces
from repro.jtrace.io import RadioTrace
from repro.service import JigsawDaemon
from repro.sim.campus import run_campus
from repro.sim.faults import inject_record_faults
from repro.sim.registry import scenario_config

SEED = 17
N_BUILDINGS = 4


def fingerprints(jframes):
    """Full-identity fingerprint: frame content plus every instance."""
    return [
        (
            jf.timestamp_us,
            jf.kind,
            jf.channel,
            jf.frame_len,
            jf.fcs,
            jf.rate_mbps,
            jf.duration_us,
            jf.dispersion_us,
            None if jf.transmitter is None else jf.transmitter.value,
            tuple(
                (i.radio_id, i.local_us, i.universal_us)
                for i in jf.instances
            ),
        )
        for jf in jframes
    ]


def stripped(traces):
    """The same records with the locality stamps removed (legacy input)."""
    return [RadioTrace(t.radio_id, t.channel, t.records) for t in traces]


@pytest.fixture(scope="module")
def campus():
    return run_campus(
        scenario_config("campus", "tiny", seed=SEED, n_buildings=N_BUILDINGS)
    )


@pytest.fixture(scope="module")
def bootstrap(campus):
    result = bootstrap_synchronization(
        campus.traces, clock_groups=campus.clock_groups
    )
    # Stamped fleets default to island_mode="local": every building is
    # its own expected reference island, nobody gets quarantined off a
    # "primary" building's timeline.
    assert result.quarantined == {}
    assert sorted(len(i) for i in result.islands) == sorted(
        len([t for t in campus.traces if t.building_id == b])
        for b in range(N_BUILDINGS)
    )
    return result


@pytest.fixture(scope="module")
def reference(campus, bootstrap):
    """The acceptance baseline: the serial reference merge."""
    return Unifier().unify(campus.traces, bootstrap)


@pytest.fixture(scope="module")
def stripped_reference(campus, bootstrap):
    """The legacy baseline: locality stamps removed, channel shards only.

    Not bit-identical to ``reference`` — and that is a feature, pinned by
    ``test_hierarchy_confines_headless_attachment``: mixed channel shards
    let a headless corrupt record attach to a timestamp-adjacent group
    from a *different building*, which (building, channel) leaves
    preclude.  Valid-frame assembly is partition-independent either way.
    """
    return Unifier().unify(stripped(campus.traces), bootstrap)


def assert_results_identical(result, reference):
    assert fingerprints(result.jframes) == fingerprints(reference.jframes)
    assert result.stats == reference.stats
    assert list(result.tracks.items()) == list(reference.tracks.items())


class TestTreeShapeMatrix:
    """Input stamping, against the module's reference merges."""

    @pytest.mark.parametrize("stamped", [True, False], ids=["stamped", "legacy"])
    def test_tree_matches_unifier(
        self, campus, bootstrap, reference, stripped_reference, stamped
    ):
        """(building, channel) leaves on stamped input, channel shards on
        legacy (unstamped) input: a second merge in the same process
        interleaves exactly like the first."""
        traces = campus.traces if stamped else stripped(campus.traces)
        result = Unifier().unify(traces, bootstrap)
        assert_results_identical(
            result, reference if stamped else stripped_reference
        )

    def test_hierarchy_confines_headless_attachment(
        self, reference, stripped_reference
    ):
        """The one sanctioned divergence between the stamped and legacy
        partitions: a corrupt record whose header is unparseable attaches
        to the timestamp-nearest open group *in its shard*.  Mixed
        channel shards can pick a group from another building; locality
        leaves cannot, so the hierarchy emits at least as many jframes
        (the strays front their own groups).  Re-partitioning only moves
        records between groups — it never drops or duplicates one — so
        the total instance count is conserved."""
        assert len(reference.jframes) >= len(stripped_reference.jframes)

        def instances(result):
            return sum(len(jf.instances) for jf in result.jframes)

        assert instances(reference) == instances(stripped_reference)

    def test_iter_and_stream_apis_match_batch(
        self, campus, bootstrap, reference
    ):
        jframes = list(Unifier().iter_unify(campus.traces, bootstrap))
        assert fingerprints(jframes) == fingerprints(reference.jframes)


class TestPlanShapes:
    """What ``partition_traces`` hands the merge and the daemon."""

    def test_campus_plan_is_building_major(self, campus):
        shards = partition_traces(campus.traces)
        localities = [{t.building_id for t in shard} for shard in shards]
        # Every leaf sits inside one building; buildings come in order.
        assert all(len(loc) == 1 for loc in localities)
        order = [loc.pop() for loc in localities]
        assert order == sorted(order)
        assert set(order) == set(range(N_BUILDINGS))
        # One leaf per (building, channel) pair actually present.
        pairs = {
            (t.building_id, t.channel) for t in campus.traces if len(t)
        }
        assert len(shards) >= len(pairs)
        assert sorted(t.radio_id for shard in shards for t in shard) == sorted(
            t.radio_id for t in campus.traces
        )

    def test_legacy_plan_falls_back_to_channels(self, campus):
        shards = partition_traces(stripped(campus.traces))
        assert len(shards) == len({t.channel for t in campus.traces})
        # Channel shards span buildings: no locality confinement left.
        by_radio = {t.radio_id: t.building_id for t in campus.traces}
        assert all(
            len({by_radio[t.radio_id] for t in shard}) == N_BUILDINGS
            for shard in shards
        )

    def test_mixed_stamps_fall_back_to_channels(self, campus):
        """partition_traces is all-or-nothing on locality: one unstamped
        trace must demote the whole plan (never a half-hierarchy)."""
        traces = list(campus.traces)
        traces[0] = RadioTrace(
            traces[0].radio_id, traces[0].channel, traces[0].records
        )
        assert [
            [t.radio_id for t in shard] for shard in partition_traces(traces)
        ] == [
            [t.radio_id for t in shard]
            for shard in partition_traces(stripped(campus.traces))
        ]


# --------------------------------------------------------------------------
# Fault axis: capture-path damage
# --------------------------------------------------------------------------


@pytest.mark.faults
class TestFaultMatrix:
    def test_fault_injected_shards_stay_identical(self, campus):
        """Blackouts and clock jumps on campus traces: the damaged fleet
        must still bootstrap, keep its leaves and merge reproducibly."""
        faulted_config = scenario_config(
            "campus",
            "tiny",
            seed=SEED,
            n_buildings=N_BUILDINGS,
            blackout_radios=2,
            clock_jump_radios=2,
        )
        faulted, plan = inject_record_faults(campus.traces, faulted_config)
        assert plan.any
        # Stamps survive the rebuild — leaves stay (building, channel).
        assert all(t.building_id is not None for t in faulted)
        boot = bootstrap_synchronization(
            faulted, clock_groups=campus.clock_groups
        )
        serial = Unifier().unify(faulted, boot)
        result = Unifier().unify(faulted, boot)
        assert_results_identical(result, serial)


# --------------------------------------------------------------------------
# Daemon axis: the live service shards through the same partition
# --------------------------------------------------------------------------


class ListFeed:
    """Minimal service feed over materialized (campus) traces."""

    def __init__(self, traces, clock_groups):
        self.traces = list(traces)
        self._clock_groups = [list(g) for g in clock_groups]
        self._by_radio = {t.radio_id: t for t in self.traces}
        self._cursor = {t.radio_id: 0 for t in self.traces}

    def clock_groups(self):
        return [list(g) for g in self._clock_groups]

    def consumed(self):
        return dict(self._cursor)

    def seek(self, consumed):
        self._cursor.update(consumed)

    def next_record(self, radio_id):
        trace = self._by_radio[radio_id]
        index = self._cursor[radio_id]
        if index >= len(trace.records):
            return None
        self._cursor[radio_id] = index + 1
        return trace.records[index]


@pytest.mark.service
class TestDaemonParity:
    def test_daemon_matches_tree_batch(self, campus):
        """The live daemon over a campus feed emits the batch jframes,
        jframe for jframe (same partition, same tie-break order)."""
        daemon = JigsawDaemon(ListFeed(campus.traces, campus.clock_groups))
        service = daemon.serve()
        assert service is not None
        # Reproduce the daemon's bootstrap policy exactly (1 s window,
        # auto-widen) for the batch leg.
        boot = bootstrap_synchronization(
            campus.traces, clock_groups=campus.clock_groups
        )
        batch = Unifier().unify(campus.traces, boot)
        report = service.report
        assert fingerprints(report.jframes) == fingerprints(batch.jframes)
        assert report.unification.stats == batch.stats
        assert report.bootstrap.offsets_us == boot.offsets_us
        assert report.bootstrap.quarantined == {}


# --------------------------------------------------------------------------
# Incremental widening: delta feeding is bit-exact
# --------------------------------------------------------------------------


class TestWidenDelta:
    def test_widened_run_matches_from_scratch_collection(self, campus):
        """End to end with a window small enough to force widening: the
        run that fed only each round's delta must land on exactly what
        one collection at the final window produces."""
        widened = bootstrap_synchronization(
            campus.traces, clock_groups=campus.clock_groups, window_us=20_000
        )
        assert widened.widen_rounds > 0, (
            "window did not force widening; shrink window_us"
        )
        scratch = bootstrap_synchronization(
            campus.traces,
            clock_groups=campus.clock_groups,
            window_us=widened.window_us,
            auto_widen=False,
        )
        for field in (
            "offsets_us",
            "reference_sets_used",
            "reference_frames_seen",
            "quarantined",
            "islands",
        ):
            assert getattr(widened, field) == getattr(scratch, field), field
