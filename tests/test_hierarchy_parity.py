"""Sharded merge parity: ``MergeTree`` against the serial reference.

:class:`~repro.core.unify.hierarchy.MergeTree` merges the shards of
``partition_traces`` — (building, channel) leaves on stamped campus
input, channel shards on legacy input — serially or on a process pool.
However the leaves execute (serial, pool, pool with dying workers) and
whatever damage the capture path injected, the jframe stream is exactly
the plain :class:`~repro.core.unify.unifier.Unifier`'s.  This suite
holds that claim over execution mode x input stamping x fault state,
plus the live daemon (which shards through the same
``partition_traces``) and the incremental pool-widening protocol of
:class:`~repro.core.sync.sharded.ShardedBootstrap` (accumulated delta
payloads must reproduce a full-window collection bit for bit).
"""

import os

import pytest

from repro.core.faults import RetryPolicy
from repro.core.sync.bootstrap import (
    bootstrap_synchronization,
    union_shard_payloads,
)
from repro.core.sync.sharded import (
    ShardedBootstrap,
    _collect_shard_prefixes,
)
from repro.core.unify import MergeTree, Unifier, partition_traces
from repro.core.unify.hierarchy import _unify_shard
from repro.jtrace.io import (
    DecodeHealth,
    RadioTrace,
    open_trace_streams,
    write_traces,
)
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
    """Execution mode x input stamping, all against the plain Unifier."""

    @pytest.mark.parametrize("max_workers", [1, 2], ids=["serial", "pool"])
    @pytest.mark.parametrize("stamped", [True, False], ids=["stamped", "legacy"])
    def test_tree_matches_unifier(
        self, campus, bootstrap, reference, stripped_reference,
        stamped, max_workers,
    ):
        """(building, channel) leaves on stamped input, channel shards on
        legacy (unstamped) input: both execution modes interleave exactly
        like the serial reference, and keep the same ledger."""
        traces = campus.traces if stamped else stripped(campus.traces)
        tree = MergeTree(max_workers=max_workers)
        result = tree.unify(traces, bootstrap)
        assert_results_identical(
            result, reference if stamped else stripped_reference
        )
        assert tree.health.shards == len(partition_traces(traces))
        if max_workers > 1:
            assert tree.health.pool_workers == 2
        else:
            assert tree.health.pool_workers == 0

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
        jframes = list(MergeTree(max_workers=1).iter_unify(
            campus.traces, bootstrap
        ))
        assert fingerprints(jframes) == fingerprints(reference.jframes)

    def test_pool_merges_file_backed_streams(
        self, campus, bootstrap, reference, tmp_path
    ):
        """Decode-ahead streams hold reader threads and do not pickle;
        the pool must still merge them — drained in the parent, so the
        ingest ledger is filled where the pipeline reads it."""
        write_traces(campus.traces, tmp_path)

        def merged(coordinator):
            streams = open_trace_streams(tmp_path, decode_ahead=2)
            try:
                result = coordinator.unify(streams, bootstrap)
            finally:
                for stream in streams:
                    stream.close()
            ingest = DecodeHealth()
            for stream in streams:
                ingest.merge(stream.decode_health)
            return result, ingest

        serial, serial_ingest = merged(Unifier())
        assert_results_identical(serial, reference)
        tree = MergeTree(max_workers=2)
        result, ingest = merged(tree)
        assert tree.health.pool_workers == 2
        assert_results_identical(result, reference)
        assert ingest == serial_ingest
        assert ingest.records_decoded == sum(len(t) for t in campus.traces)


class TestPlanShapes:
    """What ``partition_traces`` hands every execution mode."""

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
# Fault axis: dying pool workers and capture-path damage
# --------------------------------------------------------------------------

_CRASH_FLAG = None


def _crashy_leaf(unifier, traces, bootstrap):
    """Shard worker that hard-kills its process once, then behaves."""
    if _CRASH_FLAG and not os.path.exists(_CRASH_FLAG):
        open(_CRASH_FLAG, "w").close()
        os._exit(1)
    return _unify_shard(unifier, traces, bootstrap)


@pytest.mark.faults
class TestFaultMatrix:
    def test_tree_survives_worker_death_bit_identical(
        self, campus, bootstrap, reference, tmp_path, monkeypatch
    ):
        global _CRASH_FLAG
        monkeypatch.setattr(
            "repro.core.unify.hierarchy._unify_shard", _crashy_leaf
        )
        _CRASH_FLAG = str(tmp_path / "tree_crash")
        try:
            tree = MergeTree(
                max_workers=2,
                retry_policy=RetryPolicy(max_retries=2, backoff_base_s=0.0),
            )
            result = tree.unify(campus.traces, bootstrap)
        finally:
            _CRASH_FLAG = None
        assert tree.health.worker_crashes >= 1
        assert_results_identical(result, reference)

    @pytest.mark.parametrize("max_workers", [1, 2], ids=["serial", "pool"])
    def test_fault_injected_shards_stay_identical(self, campus, max_workers):
        """Blackouts and clock jumps on campus traces: the damaged fleet
        must still merge identically serially and through the pool."""
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
        result = MergeTree(max_workers=max_workers).unify(faulted, boot)
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


class TestDaemonParity:
    def test_daemon_matches_tree_batch(self, campus):
        """The live daemon over a campus feed emits the tree's jframes,
        jframe for jframe (same partition, same tie-break order)."""
        daemon = JigsawDaemon(ListFeed(campus.traces, campus.clock_groups))
        service = daemon.serve()
        assert service is not None
        # Reproduce the daemon's bootstrap policy exactly (serial
        # sharded prepass, 1 s window, auto-widen) for the batch leg.
        boot = ShardedBootstrap(max_workers=1).bootstrap(
            campus.traces, clock_groups=campus.clock_groups
        )
        batch = MergeTree(max_workers=1).unify(campus.traces, boot)
        report = service.report
        assert fingerprints(report.jframes) == fingerprints(batch.jframes)
        assert report.unification.stats == batch.stats
        assert report.bootstrap.offsets_us == boot.offsets_us
        assert report.bootstrap.quarantined == {}


# --------------------------------------------------------------------------
# Incremental pool widening: delta shipping is bit-exact
# --------------------------------------------------------------------------


class TestWidenDelta:
    def test_delta_payload_union_matches_full_collection(self, campus):
        """The protocol's core identity: a round's payload over just the
        delta records, re-anchored at its absolute index base, unions
        with earlier rounds into exactly the payload one full-window
        collection would have produced."""
        shard = [
            (pos, t.radio_id, t.records)
            for pos, t in enumerate(campus.traces)
        ]
        full = _collect_shard_prefixes(
            [(pos, rid, 0, records) for pos, rid, records in shard]
        )
        rounds = []
        for lo_frac, hi_frac in ((0.0, 0.3), (0.3, 0.7), (0.7, 1.0)):
            rounds.append(
                _collect_shard_prefixes(
                    [
                        (pos, rid, lo, records[lo:hi])
                        for pos, rid, records in shard
                        for lo in [int(lo_frac * len(records))]
                        for hi in [
                            len(records)
                            if hi_frac == 1.0
                            else int(hi_frac * len(records))
                        ]
                    ]
                )
            )
        assert union_shard_payloads(rounds) == union_shard_payloads([full])

    def test_pool_widening_matches_serial_and_reference(self, campus):
        """End to end with a window small enough to force widening: the
        resident-pool delta protocol must land on the serial incremental
        path's exact result, which must match the one-shot reference."""
        kwargs = dict(window_us=20_000, auto_widen=True)
        serial = ShardedBootstrap(max_workers=1, **kwargs)
        serial_result = serial.bootstrap(
            campus.traces, clock_groups=campus.clock_groups
        )
        pool = ShardedBootstrap(max_workers=2, **kwargs)
        pool_result = pool.bootstrap(
            campus.traces, clock_groups=campus.clock_groups
        )
        assert serial_result.widen_rounds > 0, (
            "window did not force widening; shrink window_us"
        )
        assert pool.health.pool_workers == 2
        assert pool_result.offsets_us == serial_result.offsets_us
        assert pool_result.widen_rounds == serial_result.widen_rounds
        assert pool_result.window_us == serial_result.window_us
        assert pool_result.quarantined == serial_result.quarantined
        assert (
            pool_result.reference_frames_seen
            == serial_result.reference_frames_seen
        )
        reference = bootstrap_synchronization(
            campus.traces,
            clock_groups=campus.clock_groups,
            window_us=20_000,
        )
        assert serial_result.offsets_us == reference.offsets_us
