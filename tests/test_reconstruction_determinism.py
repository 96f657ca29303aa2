"""The reconstruction's output, pinned.

Every registry family at ``tiny`` scale with a fixed seed is simulated
and reconstructed twice: from the in-memory traces, and from trace
files through :func:`~repro.jtrace.io.open_trace_streams`.  The two get
separate digests because the file encoding rounds RSSI to whole dB.  One
more case writes ``flash_crowd`` with byte damage (corruption plus a
truncated radio) and reads it back under ``policy="skip"``.

Each digest covers every jframe (its identity, its radios, the exact
universal timestamps and dispersion, and every record's encoded bytes
plus its exact RSSI), every attempt, exchange and flow, the clock
tracks, the unification and layer counters and the ingest ledger.  So a
change to decoding, synchronization, unification or link/transport
inference that moves one float, one grouping or one verdict fails here;
:mod:`tests.test_sim_determinism` pins the simulator's side.

A change that means to alter reconstruction output updates the digests
below and says why in its description.
"""

import hashlib

import pytest

from repro.core.pipeline import JigsawPipeline
from repro.jtrace.io import open_trace_streams, write_traces
from repro.jtrace.records import record_to_bytes
from repro.sim import (
    REGISTRY,
    FaultConfig,
    run_campus,
    scenario_config,
    write_faulty_traces,
)

SEED = 17

#: ``test_modes``' file-damage preset.
FILE_DAMAGE = FaultConfig(corrupt_rate=0.02, truncate_radios=1)

EXPECTED = {
    "memory": {
        "building": "0424074f77a55dc0b806674f9d6289e4",
        "campus": "b01ad2153c6dd548ea4447bba5e524cf",
        "flash_crowd": "24723064b4483cd58b5d03b2f666ce31",
        "hidden_terminal": "bb024bf1fdd35347359b21a4be6a64ad",
        "roaming": "3d38c35a9901f1a7eaa262825ae25312",
        "scanning": "2db5569cbc690680fdbac863ac40ffeb",
    },
    "files": {
        "building": "333a5535e409ca2d45c1919bc76e885a",
        "campus": "50cc47e365c59dbc491b6d9783e41634",
        "flash_crowd": "f6b4ea2bd1d7325ddcdb5dd34bc91189",
        "hidden_terminal": "667678b9f07642dc06d106fa1213af7f",
        "roaming": "d8411c7d5015a9b15506928842a14b5f",
        "scanning": "8712dd05e3714659361b492f1c7b01c0",
    },
}
EXPECTED_DAMAGED_FLASH_CROWD = "a0dfaedd400fcbd942fd830f0136e518"


def _mac(address):
    return b"-" if address is None else b"%d" % address.value


def _jframe_ref(jf):
    return b"-" if jf is None else b"%d/%d" % (jf.timestamp_us, jf.channel)


def report_digest(report):
    """BLAKE2 over everything the report reconstructed."""
    h = hashlib.blake2b(digest_size=16)
    for jf in report.jframes:
        h.update(
            b"jf %d %s %d %s %s\n"
            % (
                jf.timestamp_us,
                jf.kind.value.encode(),
                jf.channel,
                repr(jf.radio_ids).encode(),
                float.hex(jf.dispersion_us).encode(),
            )
        )
        for universal in jf.universal_us:
            h.update(float.hex(universal).encode())
        for record in jf.records:
            h.update(record_to_bytes(record))
            h.update(float.hex(record.rssi_dbm).encode())
    for attempt in report.attempts:
        h.update(
            b"at %s %s %s %s %s\n"
            % (
                _mac(attempt.transmitter),
                _mac(attempt.receiver),
                _jframe_ref(attempt.cts),
                _jframe_ref(attempt.data),
                _jframe_ref(attempt.ack),
            )
        )
    for exchange in report.exchanges:
        h.update(
            b"ex %s %s %r %r %r %s\n"
            % (
                _mac(exchange.transmitter),
                _mac(exchange.receiver),
                exchange.delivered,
                exchange.delivery_inferred_from_transport,
                exchange.needed_inference,
                b",".join(
                    _jframe_ref(a.data or a.cts or a.ack)
                    for a in exchange.attempts
                ),
            )
        )
    for flow in report.flows:
        h.update(
            repr(
                (
                    flow.key,
                    flow.n_segments,
                    flow.handshake_complete,
                    flow.syn_time_us,
                    flow.synack_time_us,
                    flow.established_time_us,
                    flow.loss_events,
                    flow.inferred_hidden_segments,
                    [float.hex(rtt) for rtt in flow.rtt_samples_us],
                )
            ).encode()
        )
    h.update(repr(list(report.tracks.items())).encode())
    h.update(repr(report.unification.stats).encode())
    h.update(repr(report.attempt_stats).encode())
    h.update(repr(report.exchange_stats).encode())
    h.update(repr(report.transport_stats).encode())
    h.update(repr(report.health.ingest).encode())
    return h.hexdigest()


def simulate(family, **overrides):
    config = scenario_config(family, scale="tiny", seed=SEED)
    if overrides:
        config = config.with_overrides(**overrides)
    return config, run_campus(config)


def test_registry_is_pinned():
    for mode in EXPECTED.values():
        assert sorted(mode) == sorted(REGISTRY.names())


@pytest.mark.parametrize("family", sorted(EXPECTED["memory"]))
def test_reconstruction_is_bit_identical(family, tmp_path):
    _, campus = simulate(family)
    memory = JigsawPipeline().run(
        campus.traces, clock_groups=campus.clock_groups
    )
    write_traces(campus.traces, tmp_path)
    files = JigsawPipeline().run(
        open_trace_streams(tmp_path), clock_groups=campus.clock_groups
    )
    assert {
        "memory": report_digest(memory),
        "files": report_digest(files),
    } == {mode: EXPECTED[mode][family] for mode in EXPECTED}


def test_damaged_files_reconstruction_is_bit_identical(tmp_path):
    config, campus = simulate("flash_crowd", faults=FILE_DAMAGE)
    plan = write_faulty_traces(campus.traces, tmp_path, config)
    assert plan.corrupted_records and plan.truncated
    report = JigsawPipeline().run(
        open_trace_streams(tmp_path, policy="skip"),
        clock_groups=campus.clock_groups,
    )
    assert not report.health.ingest.clean
    assert report_digest(report) == EXPECTED_DAMAGED_FLASH_CROWD
