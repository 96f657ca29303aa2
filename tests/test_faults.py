"""Fault-matrix tests: damaged bytes and partitioned clocks.

The robustness contract has two layers, each tested here against
*ground truth* rather than eyeballed counters:

* **ingest** — corruption and truncation, crossed with every
  :class:`~repro.jtrace.io.ErrorPolicy`: strict raises, skip
  resynchronizes and counts exactly what was lost, drop-trace empties
  the damaged trace;
* **degraded sync** — a partitioned reference graph reconstructs the
  largest island and quarantines the rest with reasons; radios whose
  references only appear after auto-widen are reported as rejoined;
  an internally inconsistent clock fit is evicted.

Plus the end-to-end property the whole layer hangs on: the sim fault
harness's damage shows up, accurately, in ``report.health``.  That an
all-off :class:`~repro.sim.scenario.FaultConfig` leaves the output
bit-identical to the fault-free pipeline is held by the fault-off
corpora of ``tests/test_modes.py``.
"""

import gzip

import pytest

from helpers import data_frame, record_for
from repro.core.faults import HealthReport
from repro.core.pipeline import JigsawPipeline
from repro.core.sync.bootstrap import (
    QUARANTINE_NO_REFERENCES,
    QUARANTINE_UNSTABLE_CLOCK,
    bootstrap_synchronization,
)
from repro.jtrace.io import (
    DecodeHealth,
    ErrorPolicy,
    RadioTrace,
    open_trace_streams,
    read_trace,
    write_traces,
)
from repro.jtrace.records import record_to_bytes
from repro.sim import (
    FaultConfig,
    ScenarioConfig,
    inject_record_faults,
    write_faulty_traces,
)
from repro.sim.registry import scenario_config
from repro.sim.runner import run_scenario

pytestmark = pytest.mark.faults


# --------------------------------------------------------------------------
# Ingest: the error-policy matrix over byte-level damage
# --------------------------------------------------------------------------


def _write_single_trace(tmp_path, n_records=40):
    """One trace on disk plus its records and their encoded byte sizes."""
    records = [
        record_for(data_frame(seq=i + 1), 1, 1000 * (i + 1))
        for i in range(n_records)
    ]
    trace = RadioTrace(1, 1, records)
    (path,) = write_traces([trace], tmp_path)
    sizes = [len(record_to_bytes(r)) for r in records]
    return path, records, sizes


def _rewrite_blob(path, mutate):
    """Decompress the trace, apply ``mutate(bytearray)``, recompress."""
    blob = bytearray(gzip.decompress(path.read_bytes()))
    blob = mutate(blob)
    with gzip.open(path, "wb") as fh:
        fh.write(bytes(blob))


def _smash_record(path, sizes, index):
    """Make record ``index``'s on-disk header implausible and mis-framed."""
    offset = sum(sizes[:index])

    def mutate(blob):
        blob[offset + 10] = 0xEE       # invalid kind byte
        blob[offset + 26] = 0xFF       # absurd snap_len: framing lost
        blob[offset + 27] = 0xFF
        return blob

    _rewrite_blob(path, mutate)


class TestErrorPolicyMatrix:
    def test_corruption_strict_raises(self, tmp_path):
        path, _, sizes = _write_single_trace(tmp_path)
        _smash_record(path, sizes, 5)
        with pytest.raises(ValueError):
            read_trace(path)

    def test_corruption_skip_resyncs_and_counts(self, tmp_path):
        path, records, sizes = _write_single_trace(tmp_path)
        _smash_record(path, sizes, 5)
        health = DecodeHealth()
        trace = read_trace(path, policy="skip", health=health)
        assert [r.timestamp_us for r in trace.records] == [
            r.timestamp_us for r in records if r is not records[5]
        ]
        assert health.records_decoded == len(records) - 1
        assert health.records_skipped == 1
        # The resync scan consumed exactly the smashed record's bytes.
        assert health.bytes_resynced == sizes[5]
        assert health.truncated_tails == 0
        assert not health.clean

    def test_adjacent_corruption_skip(self, tmp_path):
        path, records, sizes = _write_single_trace(tmp_path)
        _smash_record(path, sizes, 7)
        _smash_record(path, sizes, 8)
        health = DecodeHealth()
        trace = read_trace(path, policy="skip", health=health)
        assert len(trace.records) == len(records) - 2
        assert 1 <= health.records_skipped <= 2
        assert health.bytes_resynced == sizes[7] + sizes[8]

    def test_corruption_drop_trace(self, tmp_path):
        path, _, sizes = _write_single_trace(tmp_path)
        _smash_record(path, sizes, 5)
        health = DecodeHealth()
        trace = read_trace(path, policy=ErrorPolicy.DROP_TRACE, health=health)
        assert len(trace.records) == 0
        assert health.traces_dropped == 1

    def test_truncated_tail_skip_yields_complete_records(self, tmp_path):
        path, records, sizes = _write_single_trace(tmp_path)
        cut = 12  # mid-header of the final record
        _rewrite_blob(path, lambda blob: blob[: sum(sizes[:-1]) + cut])
        with pytest.raises(ValueError):
            read_trace(path)  # strict
        health = DecodeHealth()
        trace = read_trace(path, policy="skip", health=health)
        assert len(trace.records) == len(records) - 1
        assert health.truncated_tails == 1
        assert health.truncated_tail_bytes == cut
        assert health.records_skipped == 0

    def test_gzip_stream_truncation(self, tmp_path):
        path, records, _ = _write_single_trace(tmp_path)
        gz = path.read_bytes()
        path.write_bytes(gz[: len(gz) // 2])
        with pytest.raises(ValueError):
            read_trace(path)  # strict
        health = DecodeHealth()
        trace = read_trace(path, policy="skip", health=health)
        # Everything decompressed before the damage is salvaged.
        assert 0 < len(trace.records) < len(records)
        assert trace.records[0].timestamp_us == records[0].timestamp_us
        assert health.stream_errors == 1
        assert not health.clean

    def test_clean_trace_identical_under_all_policies(self, tmp_path):
        path, records, _ = _write_single_trace(tmp_path)
        for policy in ErrorPolicy:
            health = DecodeHealth()
            trace = read_trace(path, policy=policy, health=health)
            assert trace.records == records
            assert health.clean


# --------------------------------------------------------------------------
# Degraded sync: islands, quarantine reasons, rejoin, unstable clocks
# --------------------------------------------------------------------------


class TestDegradedSync:
    def _partitioned_traces(self):
        """Island A = {0, 1}; island B = {2, 3, 4}; radio 5 hears nothing
        shared."""
        frame_a = data_frame(seq=1)
        frame_b = data_frame(seq=2)
        lonely = data_frame(seq=3)
        traces = [
            RadioTrace(0, 1, [record_for(frame_a, 0, 1000)]),
            RadioTrace(1, 1, [record_for(frame_a, 1, 1200)]),
            RadioTrace(2, 1, [record_for(frame_b, 2, 2000)]),
            RadioTrace(3, 1, [record_for(frame_b, 3, 2100)]),
            RadioTrace(4, 1, [record_for(frame_b, 4, 2200)]),
            RadioTrace(5, 1, [record_for(lonely, 5, 1500)]),
        ]
        return traces

    def test_largest_island_is_primary(self):
        result = bootstrap_synchronization(
            self._partitioned_traces(), auto_widen=False
        )
        assert set(result.offsets_us) == {2, 3, 4}
        assert sorted(result.unreachable) == [0, 1, 5]
        assert result.quarantined[5] == QUARANTINE_NO_REFERENCES
        assert result.quarantined[0] == result.quarantined[1]
        assert result.quarantined[0].startswith("sync-island:")
        assert sorted(map(sorted, result.islands)) == [
            [0, 1], [2, 3, 4], [5]
        ]
        assert not result.fully_synchronized

    def test_local_island_mode_synchronizes_every_island(self):
        # Campus semantics: islands are expected, each multi-radio island
        # gets its own local timeline; only the reference-less singleton
        # stays quarantined.
        result = bootstrap_synchronization(
            self._partitioned_traces(), auto_widen=False, island_mode="local"
        )
        assert set(result.offsets_us) == {0, 1, 2, 3, 4}
        assert sorted(result.unreachable) == [5]
        assert result.quarantined == {5: QUARANTINE_NO_REFERENCES}
        assert sorted(map(sorted, result.islands)) == [
            [0, 1], [2, 3, 4], [5]
        ]

    def test_island_mode_defaults_local_for_stamped_fleets(self):
        traces = self._partitioned_traces()
        for trace in traces:
            trace.building_id = trace.radio_id // 2
        result = bootstrap_synchronization(traces, auto_widen=False)
        assert set(result.offsets_us) == {0, 1, 2, 3, 4}
        assert result.quarantined == {5: QUARANTINE_NO_REFERENCES}

    def test_rejoin_reported_after_auto_widen(self):
        # The shared frame appears 3 s in — outside the initial window —
        # so radio 1 is unreachable until the window widens.
        early = data_frame(seq=1)
        late = data_frame(seq=2)
        traces = [
            RadioTrace(0, 1, [
                record_for(early, 0, 0),
                record_for(late, 0, 3_000_000),
            ]),
            RadioTrace(1, 1, [record_for(late, 1, 3_000_400)]),
        ]
        result = bootstrap_synchronization(traces, auto_widen=True)
        assert result.fully_synchronized
        assert result.widen_rounds >= 1
        assert result.rejoined == [1]

    def test_unstable_clock_fit_quarantined(self):
        # Set A = {0, 1, 2} then set B = {1, 2, 3, 4}; radio 2's clock
        # jumps 1 s between them, so B's redundant 1-2 edge contradicts
        # the offsets A established.  Only radio 2 has violations on a
        # majority of its edges.
        frame_a = data_frame(seq=1)
        frame_b = data_frame(seq=2)
        # Well above the 50 ms stability tolerance, well inside the
        # examination window.
        jump = 200_000
        traces = [
            RadioTrace(0, 1, [record_for(frame_a, 0, 1000)]),
            RadioTrace(1, 1, [
                record_for(frame_a, 1, 1050),
                record_for(frame_b, 1, 2050),
            ]),
            RadioTrace(2, 1, [
                record_for(frame_a, 2, 1080),
                record_for(frame_b, 2, 2080 + jump),
            ]),
            RadioTrace(3, 1, [record_for(frame_b, 3, 2030)]),
            RadioTrace(4, 1, [record_for(frame_b, 4, 2040)]),
        ]
        result = bootstrap_synchronization(traces, auto_widen=False)
        assert result.quarantined == {2: QUARANTINE_UNSTABLE_CLOCK}
        assert set(result.offsets_us) == {0, 1, 3, 4}
        # With a tolerance above the jump the fit is accepted as skew.
        lax = bootstrap_synchronization(
            traces, auto_widen=False, stability_tolerance_us=1_000_000
        )
        assert lax.fully_synchronized


# --------------------------------------------------------------------------
# The sim fault-injection harness, end to end
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_run():
    config = ScenarioConfig.tiny(seed=11)
    artifacts = run_scenario(config)
    return config, artifacts


def _faulted_config(faults):
    # Same seed as ``tiny_run``: the simulation is identical, only the
    # capture-path damage differs.
    return ScenarioConfig.tiny(seed=11, faults=faults)


class TestFaultInjectionHarness:
    def test_fault_config_validation(self):
        with pytest.raises(ValueError):
            FaultConfig(corrupt_rate=1.5)
        with pytest.raises(ValueError):
            FaultConfig(truncate_radios=-1)
        with pytest.raises(ValueError):
            FaultConfig(truncate_mode="confetti")
        with pytest.raises(ValueError):
            FaultConfig(blackout_start_fraction=2.0)
        assert not FaultConfig().any
        assert FaultConfig(corrupt_rate=0.1).any

    def test_all_off_writes_are_byte_clean(self, tmp_path, tiny_run):
        config, artifacts = tiny_run
        traces = artifacts.radio_traces
        plain_dir = tmp_path / "plain"
        plain_dir.mkdir()
        write_traces(traces, plain_dir)
        fault_dir = tmp_path / "faulted"
        plan = write_faulty_traces(traces, fault_dir, config)
        assert not plan.any
        for trace in traces:
            name = f"radio_{trace.radio_id:04d}.jtr.gz"
            a = gzip.decompress((plain_dir / name).read_bytes())
            b = gzip.decompress((fault_dir / name).read_bytes())
            assert a == b

    def test_corruption_plan_matches_decode_health(self, tmp_path, tiny_run):
        _, artifacts = tiny_run
        traces = artifacts.radio_traces
        config = _faulted_config(FaultConfig(corrupt_rate=0.05))
        plan = write_faulty_traces(traces, tmp_path, config)
        n_corrupt = sum(len(v) for v in plan.corrupted_records.values())
        assert n_corrupt > 0
        # Exact loss model: every corrupted record is lost, plus any good
        # record sandwiched between two corrupted ones (resync confirms a
        # candidate boundary by probing its successor header, so the
        # sandwiched record's boundary can never confirm).
        n_lost = 0
        for radio, hit in plan.corrupted_records.items():
            hit_set = set(hit)
            lost = set(hit) | {
                j for j in range(max(hit))
                if j - 1 in hit_set and j + 1 in hit_set
            }
            n_lost += len(lost)
        health = DecodeHealth()
        total = 0
        for stream in open_trace_streams(tmp_path, policy="skip"):
            records = list(stream)
            total += len(records)
            health.merge(stream.decode_health)
        assert total == sum(len(t) for t in traces) - n_lost
        assert 1 <= health.records_skipped <= n_corrupt
        with pytest.raises(ValueError):
            for stream in open_trace_streams(tmp_path, policy="strict"):
                list(stream)

    def test_blackout_and_clock_jump_plans(self, tiny_run):
        _, artifacts = tiny_run
        traces = artifacts.radio_traces
        config = _faulted_config(
            FaultConfig(blackout_radios=1, clock_jump_radios=1)
        )
        faulted, plan = inject_record_faults(traces, config)
        assert len(plan.blackouts) == 1 and len(plan.clock_jumps) == 1
        by_id = {t.radio_id: t for t in traces}
        new_by_id = {t.radio_id: t for t in faulted}
        (radio, (start, end)), = plan.blackouts.items()
        dropped = plan.blackout_dropped[radio]
        assert dropped > 0
        assert len(new_by_id[radio]) == len(by_id[radio]) - dropped
        assert not any(
            start <= r.timestamp_us < end for r in new_by_id[radio].records
        )
        (radio, (cut, jump)), = plan.clock_jumps.items()
        old = by_id[radio].records
        new = new_by_id[radio].records
        for o, n in zip(old, new):
            expect = o.timestamp_us + (jump if o.timestamp_us >= cut else 0)
            assert n.timestamp_us == expect

    def test_record_truncation_reported_as_tail(self, tmp_path, tiny_run):
        _, artifacts = tiny_run
        traces = artifacts.radio_traces
        config = _faulted_config(FaultConfig(truncate_radios=1))
        plan = write_faulty_traces(traces, tmp_path, config)
        (radio,) = plan.truncated
        pre_counts = {t.radio_id: len(t) for t in traces}
        health = DecodeHealth()
        counts = {}
        for stream in open_trace_streams(tmp_path, policy="skip"):
            counts[stream.radio_id] = len(list(stream))
            health.merge(stream.decode_health)
        assert counts[radio] < pre_counts[radio]
        assert health.truncated_tails == 1
        assert health.truncated_tail_bytes > 0
        untouched = {r: c for r, c in counts.items() if r != radio}
        assert untouched == {
            r: c for r, c in pre_counts.items() if r != radio
        }

    def test_pipeline_health_reflects_injected_faults(
        self, tmp_path, tiny_run
    ):
        _, artifacts = tiny_run
        traces = artifacts.radio_traces
        config = _faulted_config(
            FaultConfig(corrupt_rate=0.05, truncate_radios=1,
                        blackout_radios=1)
        )
        plan = write_faulty_traces(traces, tmp_path, config)
        clock_groups = [
            [r.radio_id for r in pod.radios] for pod in artifacts.pods
        ]
        streams = open_trace_streams(tmp_path, policy="skip")
        report = JigsawPipeline().run(
            streams, clock_groups=clock_groups
        )
        assert report.jframes
        assert report.health.degraded
        n_corrupt = sum(len(v) for v in plan.corrupted_records.values())
        assert report.health.ingest.records_skipped >= 1
        assert report.health.ingest.records_skipped <= n_corrupt
        assert report.health.ingest.truncated_tails == 1
        assert "degraded:" in report.summary()

    def test_health_report_summary_shape(self):
        report = HealthReport()
        assert not report.degraded
        report.ingest.records_skipped = 3
        assert report.degraded
        assert "skipped=3" in report.summary()
        assert report.summary() == (
            f"ingest[{report.ingest.summary()}] sync[{report.sync.summary()}]"
        )


# --------------------------------------------------------------------------
# Batched-decode parity: the vectorized engine is an implementation detail
# --------------------------------------------------------------------------


class TestBatchedDecodeParity:
    """The batch-vectorized ingest engine must be indistinguishable from
    the scalar decoder under damage: byte-identical records, identical
    ``DecodeHealth`` ledgers, identical errors at identical positions,
    and jframe-identical pipeline output — for every error policy."""

    #: Batched ingest variants checked against the scalar reference.
    BATCHED = ({"vectorized": True},)

    @staticmethod
    def _faulted_dir(tmp_path, artifacts, faults):
        config = _faulted_config(faults)
        write_faulty_traces(artifacts.radio_traces, tmp_path, config)
        return tmp_path

    @staticmethod
    def _drain(directory, policy, **ingest):
        out = {}
        for stream in open_trace_streams(directory, policy=policy, **ingest):
            out[stream.radio_id] = (list(stream), stream.decode_health)
        return out

    @pytest.mark.parametrize("policy", ["skip", "drop-trace"])
    def test_faulted_ledgers_and_records_identical(
        self, tmp_path, tiny_run, policy
    ):
        _, artifacts = tiny_run
        directory = self._faulted_dir(
            tmp_path,
            artifacts,
            FaultConfig(corrupt_rate=0.05, truncate_radios=1),
        )
        scalar = self._drain(directory, policy, vectorized=False)
        for ingest in self.BATCHED:
            batched = self._drain(directory, policy, **ingest)
            assert batched.keys() == scalar.keys()
            for radio_id, (records, health) in scalar.items():
                b_records, b_health = batched[radio_id]
                assert b_health == health, (radio_id, ingest)
                assert b_records == records, (radio_id, ingest)

    def test_strict_errors_identical(self, tmp_path, tiny_run):
        _, artifacts = tiny_run
        directory = self._faulted_dir(
            tmp_path, artifacts, FaultConfig(corrupt_rate=0.05)
        )

        def first_error(**ingest):
            errors = {}
            for stream in open_trace_streams(
                directory, policy="strict", **ingest
            ):
                try:
                    list(stream)
                except ValueError as exc:
                    errors[stream.radio_id] = str(exc)
            return errors

        scalar = first_error(vectorized=False)
        assert scalar  # the plan corrupted something
        for ingest in self.BATCHED:
            assert first_error(**ingest) == scalar, ingest

    def test_faulted_pipeline_jframes_identical(self, tmp_path, tiny_run):
        _, artifacts = tiny_run
        directory = self._faulted_dir(
            tmp_path,
            artifacts,
            FaultConfig(corrupt_rate=0.03, blackout_radios=1),
        )
        clock_groups = artifacts.clock_groups()

        def reconstruct(**ingest):
            streams = open_trace_streams(
                directory, policy="skip", **ingest
            )
            return JigsawPipeline().run(
                streams, clock_groups=clock_groups
            )

        baseline = reconstruct(vectorized=False)
        base_frames = [
            (j.timestamp_us, j.channel, j.fcs, j.n_instances,
             [i.radio_id for i in j.instances])
            for j in baseline.jframes
        ]
        for ingest in self.BATCHED:
            report = reconstruct(**ingest)
            assert report.unification.stats == baseline.unification.stats
            assert report.health.ingest == baseline.health.ingest
            frames = [
                (j.timestamp_us, j.channel, j.fcs, j.n_instances,
                 [i.radio_id for i in j.instances])
                for j in report.jframes
            ]
            assert frames == base_frames, ingest


class TestSidecarBound:
    """Under ``skip`` damaged bytes that happen to frame as a plausible
    record must not decode into one: every record either engine salvages
    lies inside the span and channels its radio wrote, as the sidecar
    declares them, and the engines still agree record for record."""

    @pytest.mark.parametrize(
        "family, corrupt_rate", [("building", 0.03), ("flash_crowd", 0.01)]
    )
    def test_no_fabricated_records(self, tmp_path, family, corrupt_rate):
        # Seed 12 corpora: without the bound, both decode fabricated
        # records (stamped far past the trace, on channels it never used).
        config = scenario_config(
            family,
            "tiny",
            seed=12,
            faults=FaultConfig(corrupt_rate=corrupt_rate),
        )
        traces = run_scenario(config).radio_traces
        plan = write_faulty_traces(traces, tmp_path, config)
        assert plan.corrupted_records
        written, _ = inject_record_faults(traces, config)
        decoded = {
            vectorized: {
                stream.radio_id: (list(stream), stream.decode_health)
                for stream in open_trace_streams(
                    tmp_path, policy="skip", vectorized=vectorized
                )
            }
            for vectorized in (True, False)
        }
        assert decoded[True] == decoded[False]
        for trace in written:
            records, _ = decoded[False][trace.radio_id]
            channels = {r.channel for r in trace.records}
            assert all(
                trace.first_timestamp_us <= r.timestamp_us
                <= trace.last_timestamp_us
                and r.channel in channels
                for r in records
            ), trace.radio_id
