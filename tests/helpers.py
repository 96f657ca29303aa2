"""What the test modules share: hand-built captures and report identity.

``record_for`` / ``data_frame`` build one radio's capture of one frame;
``fingerprints`` and ``assert_reports_identical`` state what "the same
reconstruction" means wherever two runs are held to each other;
``small_passes`` is the analysis set the ``small_run`` fixture registers;
``run_stage`` drives one reconstruction stage over a finished input.
"""

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
from repro.dot11.address import MacAddress
from repro.dot11.frame import make_data
from repro.dot11.serialize import frame_to_bytes
from repro.jtrace.records import RecordKind, TraceRecord

SRC = MacAddress.parse("00:0c:0c:00:00:01")
DST = MacAddress.parse("00:0a:0a:00:00:01")


def data_frame(seq=1, body=b"payload", retry=False, src=SRC):
    return make_data(src, DST, DST, seq=seq, body=body, retry=retry)


def record_for(frame, radio_id, ts, channel=1, kind=RecordKind.VALID,
               txid=0, corrupt_bytes=None):
    """One capture of ``frame``: a PHY error keeps no bytes, a corrupt
    capture keeps ``corrupt_bytes`` when given (else the frame's own)."""
    raw = frame_to_bytes(frame)
    if kind is RecordKind.PHY_ERROR:
        snap, frame_len, fcs = b"", 0, 0
    else:
        if corrupt_bytes is not None:
            raw = corrupt_bytes
        snap, frame_len = raw[:200], len(raw)
        fcs = int.from_bytes(raw[-4:], "little")
    return TraceRecord(
        radio_id=radio_id, timestamp_us=ts, kind=kind, channel=channel,
        rate_mbps=11.0, rssi_dbm=-60.0, frame_len=frame_len, fcs=fcs,
        snap=snap, duration_us=100, truth_txid=txid,
    )


def run_stage(stage, items):
    """Feed every item to a fresh single-use stage, then finish it;
    return everything it emitted, in emission order (a flow collector
    emits only from ``finish``)."""
    out = []
    for item in items:
        out.extend(stage.feed(item) or ())
    out.extend(stage.finish())
    return out


def jframe_fingerprint(jf):
    """Full identity: frame content plus every instance."""
    return (
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
            (i.radio_id, i.local_us, i.universal_us) for i in jf.instances
        ),
    )


def fingerprints(jframes):
    return [jframe_fingerprint(jf) for jf in jframes]


def flow_fingerprints(flows):
    return [
        (str(f.key), f.handshake_complete, f.loss_events) for f in flows
    ]


def assert_reports_identical(report, reference):
    """The cross-mode contract: jframes, the unification ledger and
    clock tracks, every layer's counters, flows, offsets and the sync
    verdicts."""
    assert fingerprints(report.jframes) == fingerprints(reference.jframes)
    assert report.unification.stats == reference.unification.stats
    assert list(report.tracks.items()) == list(reference.tracks.items())
    assert report.attempt_stats == reference.attempt_stats
    assert report.exchange_stats == reference.exchange_stats
    assert report.transport_stats == reference.transport_stats
    assert flow_fingerprints(report.flows) == flow_fingerprints(
        reference.flows
    )
    assert report.bootstrap.offsets_us == reference.bootstrap.offsets_us
    assert report.health.sync == reference.health.sync


def small_passes(config, wired_trace):
    """The eight Section 6/7 analyses at ten bins per run."""
    duration = config.duration_us
    bin_us = duration // 10
    return [
        ActivityPass(duration, bin_us=bin_us),
        BroadcastAirtimePass(duration),
        DispersionPass(),
        ProtectionPass(
            duration, bin_us=bin_us, practical_timeout_us=duration // 8
        ),
        TcpLossPass(),
        SummaryPass(duration),
        InterferencePass(min_packets=20),
        WiredCoveragePass(wired_trace),
    ]
