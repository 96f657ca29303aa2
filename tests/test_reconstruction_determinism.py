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
        "building": "24472e8d4adff33174c6c8bf69708e99",
        "campus": "99e0030d7e399c97da343b5b7812210f",
        "flash_crowd": "5eee27b357819155d0e65473d00094c2",
        "hidden_terminal": "cf0cbeb73b137d8107285dd3dacb31b7",
        "roaming": "f65d3799e5422a0230edb2ef6ebaa2de",
        "scanning": "78b9fb174ce92c465c2c90f581234d8b",
    },
    "files": {
        "building": "e0e196cba41d25f05eeef593d5723049",
        "campus": "7b035e8ee74cb93ed63b682e1b97651b",
        "flash_crowd": "db5527452eb93d5c37859fea88582dd7",
        "hidden_terminal": "2d66a8247d532ed57fc602df280abfb0",
        "roaming": "488989d163bb094ad19b64c07b5ec1aa",
        "scanning": "8d2b5fd77d017d2cb4e40f409412aff7",
    },
}
EXPECTED_DAMAGED_FLASH_CROWD = "67c62e6e2a15104fc9ff6d962099980c"


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
