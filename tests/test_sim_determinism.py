"""The simulator's output, pinned.

Every registry family at ``tiny`` scale with a fixed seed must reproduce
the same monitor traces and the same ground truth, bit for bit, in every
building it simulates (a campus runs each building on its own sub-seed).
The digest covers each record's encoded bytes, the exact ``rssi_dbm`` float
(the encoding rounds it to whole dB) and every transmission's identity,
timing, channel and transmitter, so a change to the medium, propagation
or reception arithmetic that moves a single float or RNG draw fails here.

A change that means to alter simulator output updates the digests below
and says why in its description.
"""

import hashlib

import pytest

from repro.jtrace.records import record_to_bytes
from repro.sim import REGISTRY, run_campus, scenario_config

SEED = 17

EXPECTED = {
    "building": "d3244b593a3f0d4dcc553bdac9490229",
    "campus": "0cb4596644c7bee9bf6db38fb0c86a9e",
    "flash_crowd": "6e83e7c944771687e6bee53eeccc0723",
    "hidden_terminal": "a4e5b892a066ac238c977505f35298b5",
    "roaming": "f6457d57435db83cc987ab599927bb08",
    "scanning": "a19cdea1c9796be2673d4851aa5d65ab",
}


def simulation_digest(buildings):
    """BLAKE2 over each building's traces (bytes + exact RSSI) and its
    ground truth."""
    h = hashlib.blake2b(digest_size=16)
    for artifacts in buildings:
        for trace in artifacts.radio_traces:
            h.update(b"trace %d %d\n" % (trace.radio_id, len(trace)))
            for record in trace:
                h.update(record_to_bytes(record))
                h.update(float.hex(record.rssi_dbm).encode())
        for tx in artifacts.ground_truth:
            h.update(
                b"tx %d %d %d %d %s\n"
                % (
                    tx.txid,
                    tx.start_us,
                    tx.duration_us,
                    tx.channel.number,
                    tx.transmitter_id.encode(),
                )
            )
    return h.hexdigest()


def test_registry_is_pinned():
    assert sorted(EXPECTED) == sorted(REGISTRY.names())


@pytest.mark.parametrize("family", sorted(EXPECTED))
def test_tiny_run_is_bit_identical(family):
    campus = run_campus(scenario_config(family, scale="tiny", seed=SEED))
    assert simulation_digest(campus.buildings) == EXPECTED[family]
