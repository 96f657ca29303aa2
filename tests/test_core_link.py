"""Tests for link-layer reconstruction: attempts and frame exchanges."""


from helpers import run_stage
from repro.core.link.attempt import AttemptAssembler
from repro.core.link.exchange import ExchangeAssembler
from repro.core.sync.bootstrap import bootstrap_synchronization
from repro.core.unify.jframe import JFrame, JFrameKind
from repro.core.unify.unifier import Unifier
from repro.dot11.address import BROADCAST, MacAddress
from repro.dot11.frame import make_ack, make_cts_to_self, make_data
from repro.dot11.rates import (
    RATE_11,
    RATE_24,
    RATE_54,
    ack_airtime_us,
    cts_to_self_duration_field_us,
    data_duration_field_us,
    frame_airtime_us,
)
from repro.sim import run_scenario, scenario_config

STA = MacAddress.parse("00:0c:0c:00:00:01")
STA2 = MacAddress.parse("00:0c:0c:00:00:02")
AP = MacAddress.parse("00:0a:0a:00:00:01")


def jf(frame, end_us, rate=RATE_11, channel=1, txid=0):
    """A synthetic one-instance jframe; timestamp is end-of-reception."""
    duration = frame_airtime_us(frame.size_bytes, rate)
    from repro.jtrace.records import RecordKind, TraceRecord
    from repro.dot11.serialize import frame_to_bytes

    raw = frame_to_bytes(frame)
    record = TraceRecord(
        radio_id=0, timestamp_us=end_us, kind=RecordKind.VALID,
        channel=channel, rate_mbps=rate.mbps, rssi_dbm=-55.0,
        frame_len=len(raw), fcs=int.from_bytes(raw[-4:], "little"),
        snap=raw[:200], duration_us=duration, truth_txid=txid,
    )
    return JFrame(
        timestamp_us=end_us, kind=JFrameKind.VALID, channel=channel,
        radio_ids=[0], universal_us=[float(end_us)], records=[record],
        frame=frame, frame_len=len(raw),
        fcs=record.fcs, rate_mbps=rate.mbps, duration_us=duration,
        transmitter=frame.transmitter,
    )


def data_ack_pair(seq, t_end, rate=RATE_11, retry=False, src=STA, dst=AP,
                  body=b"x" * 100):
    """DATA ending at t_end plus its ACK after SIFS."""
    ack_rate = RATE_11 if rate is RATE_11 else RATE_24
    data = make_data(src, dst, AP, seq=seq, body=body, retry=retry).with_duration(
        data_duration_field_us(ack_rate)
    )
    ack_end = t_end + 10 + ack_airtime_us(ack_rate)
    return [jf(data, t_end, rate), jf(make_ack(src), ack_end, ack_rate)]


class TestAttemptAssembly:
    def test_data_plus_ack_grouped(self):
        frames = data_ack_pair(seq=5, t_end=10_000)
        attempts = run_stage(AttemptAssembler(), frames)
        assert len(attempts) == 1
        attempt = attempts[0]
        assert attempt.acked
        assert attempt.seq == 5
        assert attempt.transmitter == STA

    def test_ack_timing_enforced(self):
        """An ACK outside the Duration window must not attach to an earlier
        DATA frame — it signals a *missing* DATA frame (Section 5.1)."""
        data, _ = data_ack_pair(seq=5, t_end=10_000)
        stray_ack = jf(make_ack(STA), 14_000, RATE_11)  # 4 ms later
        assembler = AttemptAssembler()
        attempts = run_stage(assembler, [data, stray_ack])
        with_data = [a for a in attempts if a.has_data]
        assert len(with_data) == 1 and not with_data[0].acked
        orphans = [a for a in attempts if not a.has_data]
        assert len(orphans) == 1 and orphans[0].transmitter == STA
        assert assembler.stats.acks_orphaned == 1

    def test_cts_to_self_attached(self):
        body = b"z" * 800
        dur = cts_to_self_duration_field_us(len(body) + 28, RATE_54, RATE_24)
        cts = make_cts_to_self(STA, dur)
        cts_jf = jf(cts, 10_000, RATE_11)
        frames = [cts_jf] + data_ack_pair(
            seq=9, t_end=10_300, rate=RATE_54, body=body
        )
        attempts = run_stage(AttemptAssembler(), frames)
        assert len(attempts) == 1
        assert attempts[0].cts is cts_jf
        assert attempts[0].acked

    def test_stale_cts_not_attached(self):
        cts = make_cts_to_self(STA, 300)
        frames = [jf(cts, 10_000)] + data_ack_pair(seq=9, t_end=40_000)
        attempts = run_stage(AttemptAssembler(), frames)
        assert attempts[0].cts is None

    def test_ack_matches_correct_sender(self):
        d1, _ = data_ack_pair(seq=1, t_end=10_000, src=STA)
        d2, a2 = data_ack_pair(seq=7, t_end=10_200, src=STA2)
        attempts = run_stage(AttemptAssembler(), [d1, d2, a2])
        by_src = {a.transmitter: a for a in attempts if a.has_data}
        assert not by_src[STA].acked
        assert by_src[STA2].acked

    def test_orphan_ack_attempt_counted_as_it_is_emitted(self):
        data, _ = data_ack_pair(seq=5, t_end=10_000)
        stray_ack = jf(make_ack(STA), 14_000, RATE_11)
        assembler = AttemptAssembler()
        emitted = [a for j in (data, stray_ack) for a in assembler.feed(j)]
        assert assembler.stats.attempts == 2
        emitted += assembler.finish()
        assert len(emitted) == assembler.stats.attempts == 2

    def test_attempts_counted_before_finish_on_a_flash_crowd(self):
        """``finish()`` only flushes: the count read before it is
        already every attempt the assembler emits, orphan ACKs
        included."""
        artifacts = run_scenario(scenario_config("flash_crowd", "tiny", seed=13))
        traces = artifacts.radio_traces
        bootstrap = bootstrap_synchronization(
            traces, clock_groups=artifacts.clock_groups()
        )
        assembler = AttemptAssembler()
        emitted = 0
        for jframe in Unifier().unify(traces, bootstrap).jframes:
            emitted += len(assembler.feed(jframe))
        before = assembler.stats.attempts
        emitted += len(assembler.finish())
        assert assembler.stats.acks_orphaned > 0
        assert before == assembler.stats.attempts == emitted == 1_221

    def test_broadcast_attempt(self):
        frame = make_data(AP, BROADCAST, AP, seq=3, body=b"arp")
        attempts = run_stage(AttemptAssembler(), [jf(frame, 5_000)])
        assert len(attempts) == 1
        assert attempts[0].is_broadcast
        assert not attempts[0].acked


class TestExchangeAssembly:
    def assemble(self, jframes):
        attempts = run_stage(AttemptAssembler(), jframes)
        assembler = ExchangeAssembler()
        return run_stage(assembler, attempts), assembler.stats

    def test_exchanges_counted_as_they_close_on_a_flash_crowd(self):
        """An exchange is counted when it closes: before ``finish()``
        the count is every exchange emitted plus those waiting in the
        reorder heap, and ``finish()`` adds only those it closes."""
        artifacts = run_scenario(scenario_config("flash_crowd", "tiny", seed=13))
        traces = artifacts.radio_traces
        bootstrap = bootstrap_synchronization(
            traces, clock_groups=artifacts.clock_groups()
        )
        attempts = run_stage(
            AttemptAssembler(), Unifier().unify(traces, bootstrap).jframes
        )
        assembler = ExchangeAssembler()
        emitted = 0
        for attempt in attempts:
            emitted += len(assembler.feed(attempt))
        before = assembler.stats.exchanges
        assert (before, emitted) == (986, 547)
        assert before == emitted + len(assembler._reorder)
        emitted += len(assembler.finish())
        assert assembler.stats.exchanges == emitted == 996

    def test_single_acked_exchange(self):
        exchanges, _ = self.assemble(data_ack_pair(seq=1, t_end=10_000))
        assert len(exchanges) == 1
        assert exchanges[0].delivered is True
        assert exchanges[0].retransmissions == 0

    def test_r2_retransmissions_coalesce(self):
        d1, _ = data_ack_pair(seq=5, t_end=10_000)  # first try, no ACK
        retry_frames = data_ack_pair(seq=5, t_end=12_000, retry=True)
        exchanges, _ = self.assemble([d1] + retry_frames)
        assert len(exchanges) == 1
        assert exchanges[0].retransmissions == 1
        assert exchanges[0].delivered is True

    def test_r3_new_sequence_new_exchange(self):
        frames = data_ack_pair(seq=5, t_end=10_000) + data_ack_pair(
            seq=6, t_end=20_000
        )
        exchanges, _ = self.assemble(frames)
        assert len(exchanges) == 2
        assert [e.seq for e in exchanges] == [5, 6]

    def test_r4_gap_no_inference(self):
        frames = data_ack_pair(seq=5, t_end=10_000) + data_ack_pair(
            seq=9, t_end=20_000
        )
        exchanges, stats = self.assemble(frames)
        assert len(exchanges) == 2

    def test_unacked_exchange_ambiguous(self):
        data, _ = data_ack_pair(seq=5, t_end=10_000)
        exchanges, _ = self.assemble([data])
        assert exchanges[0].delivered is None

    def test_orphan_ack_resolves_open_exchange(self):
        """CTS and ACK observed but DATA missed: the queued ACK upgrades
        the prior same-sender exchange when the next sequence arrives."""
        d5, _ = data_ack_pair(seq=5, t_end=10_000)       # DATA seen, ACK missed
        # The retry's DATA was missed but its ACK was captured:
        _, orphan_ack = data_ack_pair(seq=5, t_end=12_000)
        next_frames = data_ack_pair(seq=6, t_end=30_000)
        exchanges, stats = self.assemble([d5, orphan_ack] + next_frames)
        ex5 = next(e for e in exchanges if e.seq == 5)
        assert ex5.delivered is True
        assert ex5.needed_inference
        assert stats.orphans_resolved == 1

    def test_broadcast_is_r1(self):
        frame = make_data(AP, BROADCAST, AP, seq=3, body=b"arp")
        exchanges, _ = self.assemble([jf(frame, 5_000)])
        assert len(exchanges) == 1
        assert exchanges[0].delivered is True  # no ARQ for broadcast

    def test_interleaved_senders_separate(self):
        frames = (
            data_ack_pair(seq=5, t_end=10_000, src=STA)
            + data_ack_pair(seq=900, t_end=10_500, src=STA2)
            + data_ack_pair(seq=6, t_end=11_000, src=STA)
            + data_ack_pair(seq=901, t_end=11_500, src=STA2)
        )
        exchanges, _ = self.assemble(frames)
        assert len(exchanges) == 4
        by_sender = {}
        for e in exchanges:
            by_sender.setdefault(e.transmitter, []).append(e.seq)
        assert by_sender[STA] == [5, 6]
        assert by_sender[STA2] == [900, 901]

    def test_stale_exchange_closed_by_horizon(self):
        d1, _ = data_ack_pair(seq=5, t_end=10_000)
        # Same sequence number reused 2 s later (wrapped or restarted):
        # beyond the 500 ms horizon it must be a fresh exchange.
        d2, a2 = data_ack_pair(seq=5, t_end=2_010_000)
        exchanges, _ = self.assemble([d1, d2, a2])
        assert len(exchanges) == 2

    def test_sequence_wraparound_delta_one(self):
        frames = data_ack_pair(seq=4095, t_end=10_000) + data_ack_pair(
            seq=0, t_end=20_000
        )
        exchanges, _ = self.assemble(frames)
        assert len(exchanges) == 2  # 4095 -> 0 is delta 1, two exchanges

    def test_first_attempt_with_retry_bit_flags_inference(self):
        frames = data_ack_pair(seq=5, t_end=10_000, retry=True)
        exchanges, stats = self.assemble(frames)
        assert exchanges[0].needed_inference
        assert stats.exchanges_needing_inference == 1

    def test_rate_never_increases_across_retries(self):
        d1, _ = data_ack_pair(seq=5, t_end=10_000, rate=RATE_54)
        retry = data_ack_pair(seq=5, t_end=12_000, rate=RATE_24, retry=True)
        exchanges, _ = self.assemble([d1] + retry)
        assert exchanges[0].final_rate_mbps == 24.0
