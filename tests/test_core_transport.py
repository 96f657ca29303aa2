"""Tests for transport-layer reconstruction and inference."""

import pytest

from repro.core.link.exchange import FrameExchange
from repro.core.transport.flows import FlowKey, collect_flows
from repro.core.transport.inference import (
    LossCause,
    TransportInference,
)
from repro.core.unify.jframe import JFrame, JFrameKind
from repro.dot11.address import MacAddress
from repro.dot11.frame import make_data
from repro.dot11.rates import RATE_11, frame_airtime_us
from repro.net.packets import IpPacket, TcpFlags, TcpSegment, ip_to_bytes

STA = MacAddress.parse("00:0c:0c:00:00:01")
AP = MacAddress.parse("00:0a:0a:00:00:01")

CLIENT_IP = 0x0A000001
SERVER_IP = 0xAC100001


def tcp_exchange(
    seq,
    ack,
    flags,
    payload_len,
    t_end,
    uplink=True,
    delivered=True,
    mac_seq=0,
    client_port=40_000,
):
    """A frame exchange carrying one TCP segment."""
    if uplink:
        packet = IpPacket(
            CLIENT_IP, SERVER_IP,
            TcpSegment(client_port, 80, seq, ack, flags, payload_len),
        )
        frame = make_data(
            STA, AP, AP, seq=mac_seq, body=ip_to_bytes(packet), to_ds=True
        )
    else:
        packet = IpPacket(
            SERVER_IP, CLIENT_IP,
            TcpSegment(80, 40_000, seq, ack, flags, payload_len),
        )
        frame = make_data(
            AP, STA, AP, seq=mac_seq, body=ip_to_bytes(packet), from_ds=True
        )
    duration = frame_airtime_us(frame.size_bytes, RATE_11)
    from repro.dot11.serialize import frame_to_bytes
    from repro.jtrace.records import RecordKind, TraceRecord
    from repro.core.link.attempt import TransmissionAttempt

    raw = frame_to_bytes(frame)
    record = TraceRecord(
        radio_id=0, timestamp_us=t_end, kind=RecordKind.VALID, channel=1,
        rate_mbps=11.0, rssi_dbm=-55.0, frame_len=len(raw),
        fcs=int.from_bytes(raw[-4:], "little"), snap=raw[:200],
        duration_us=duration,
    )
    jframe = JFrame(
        timestamp_us=t_end, kind=JFrameKind.VALID, channel=1,
        radio_ids=[0], universal_us=[float(t_end)], records=[record],
        frame=frame, frame_len=len(raw), fcs=record.fcs,
        rate_mbps=11.0, duration_us=duration, transmitter=frame.transmitter,
    )
    attempt = TransmissionAttempt(
        transmitter=frame.transmitter, receiver=frame.addr1, data=jframe
    )
    return FrameExchange(
        transmitter=frame.transmitter,
        receiver=frame.addr1,
        attempts=[attempt],
        delivered=delivered,
    )


def full_flow(t0=1_000_000, with_losses=None, data_segments=4):
    """A handshake + upload of ``data_segments`` MSS segments + teardown.

    ``with_losses`` maps segment index -> dict(delivered=..., retransmit=True)
    """
    with_losses = with_losses or {}
    exchanges = []
    isn_c, isn_s = 1000, 9000
    t = t0
    exchanges.append(tcp_exchange(isn_c, 0, TcpFlags.SYN, 0, t, uplink=True))
    t += 5_000
    exchanges.append(
        tcp_exchange(isn_s, isn_c + 1, TcpFlags.SYN | TcpFlags.ACK, 0, t,
                     uplink=False)
    )
    t += 5_000
    exchanges.append(
        tcp_exchange(isn_c + 1, isn_s + 1, TcpFlags.ACK, 0, t, uplink=True)
    )
    seq = isn_c + 1
    mss = 1000
    for i in range(data_segments):
        t += 10_000
        spec = with_losses.get(i, {})
        delivered = spec.get("delivered", True)
        exchanges.append(
            tcp_exchange(
                seq, isn_s + 1, TcpFlags.ACK | TcpFlags.PSH, mss, t,
                uplink=True, delivered=delivered, mac_seq=i + 10,
            )
        )
        if spec.get("retransmit"):
            t += 40_000
            exchanges.append(
                tcp_exchange(
                    seq, isn_s + 1, TcpFlags.ACK | TcpFlags.PSH, mss, t,
                    uplink=True, delivered=True, mac_seq=i + 100,
                )
            )
        t += 8_000
        exchanges.append(
            tcp_exchange(isn_s + 1, seq + mss, TcpFlags.ACK, 0, t,
                         uplink=False)
        )
        seq += mss
    return exchanges


class TestFlowKey:
    def test_canonical_both_directions(self):
        up = IpPacket(CLIENT_IP, SERVER_IP, TcpSegment(40_000, 80, 0, 0, TcpFlags.ACK))
        down = IpPacket(SERVER_IP, CLIENT_IP, TcpSegment(80, 40_000, 0, 0, TcpFlags.ACK))
        k1, d1 = FlowKey.from_packet(up, up.payload)
        k2, d2 = FlowKey.from_packet(down, down.payload)
        assert k1 == k2
        assert d1 != d2

    def test_str_readable(self):
        up = IpPacket(CLIENT_IP, SERVER_IP, TcpSegment(40_000, 80, 0, 0, TcpFlags.ACK))
        key, _ = FlowKey.from_packet(up, up.payload)
        assert "10.0.0.1" in str(key)


class TestFlowCollection:
    def test_flow_assembled(self):
        flows = collect_flows(full_flow())
        assert len(flows) == 1
        flow = flows[0]
        assert flow.n_segments == 3 + 4 * 2
        assert flow.data_bytes_observed == 4000

    def test_non_tcp_exchanges_ignored(self):
        frame = make_data(STA, AP, AP, seq=1, body=b"not-ip-at-all")
        from repro.core.link.attempt import TransmissionAttempt

        duration = frame_airtime_us(frame.size_bytes, RATE_11)
        jframe = JFrame(
            timestamp_us=1000, kind=JFrameKind.VALID, channel=1,
            radio_ids=[], universal_us=[], records=[], frame=frame,
            duration_us=duration,
        )
        attempt = TransmissionAttempt(STA, AP, data=jframe)
        junk = FrameExchange(STA, AP, attempts=[attempt])
        assert collect_flows([junk]) == []

    def test_two_flows_separate(self):
        a = full_flow(t0=1_000_000)
        b = [
            tcp_exchange(5, 0, TcpFlags.SYN, 0, 2_000_000, uplink=True,
                         client_port=41_000)
        ]
        flows = collect_flows(a + b)
        assert len(flows) == 2


class TestHandshakeDetection:
    def test_complete_handshake(self):
        flows = collect_flows(full_flow())
        stats = TransportInference().run(flows)
        assert stats.handshakes_completed == 1
        assert flows[0].handshake_complete
        # The SYN observation anchors the flow (frame start time).
        assert flows[0].syn_time_us == flows[0].observations[0].time_us

    def test_syn_scan_not_completed(self):
        scan = [tcp_exchange(7, 0, TcpFlags.SYN, 0, 1_000, uplink=True)]
        flows = collect_flows(scan)
        stats = TransportInference().run(flows)
        assert stats.handshakes_completed == 0


class TestAckCoverageOracle:
    def test_ambiguous_exchange_upgraded(self):
        exchanges = full_flow(with_losses={1: {"delivered": None}})
        flows = collect_flows(exchanges)
        stats = TransportInference().run(flows)
        assert stats.exchanges_upgraded_by_ack_coverage == 1
        upgraded = [
            o.exchange
            for o in flows[0].observations
            if o.exchange.delivery_inferred_from_transport
        ]
        assert len(upgraded) == 1
        assert upgraded[0].delivered is True

    def test_retransmitted_segment_not_upgraded(self):
        exchanges = full_flow(
            with_losses={1: {"delivered": None, "retransmit": True}}
        )
        flows = collect_flows(exchanges)
        stats = TransportInference().run(flows)
        # The covering ACK follows the retransmission, so it proves nothing
        # about the first copy.
        assert stats.exchanges_upgraded_by_ack_coverage == 0


class TestLossClassification:
    def test_wireless_loss(self):
        exchanges = full_flow(
            with_losses={2: {"delivered": False, "retransmit": True}}
        )
        flows = collect_flows(exchanges)
        stats = TransportInference().run(flows)
        assert stats.loss_events == 1
        assert stats.wireless_losses == 1
        assert flows[0].loss_events[0].cause is LossCause.WIRELESS

    def test_wired_loss(self):
        # Link delivered the frame, yet TCP retransmitted: the drop was
        # beyond the wireless hop.
        exchanges = full_flow(
            with_losses={2: {"delivered": True, "retransmit": True}}
        )
        flows = collect_flows(exchanges)
        stats = TransportInference().run(flows)
        assert stats.loss_events == 1
        assert stats.wired_losses == 1

    def test_unknown_when_ambiguous(self):
        exchanges = full_flow(
            with_losses={2: {"delivered": None, "retransmit": True}}
        )
        flows = collect_flows(exchanges)
        stats = TransportInference().run(flows)
        assert stats.loss_events == 1
        assert stats.unknown_losses == 1

    def test_unseen_downlink_original_is_wired(self):
        """A downlink retransmission whose original never hit the air:
        the packet died in the wired network before reaching the AP."""
        t = 1_000_000
        exchanges = [
            tcp_exchange(100, 0, TcpFlags.SYN, 0, t, uplink=False),
            tcp_exchange(500, 101, TcpFlags.SYN | TcpFlags.ACK, 0, t + 5000,
                         uplink=True),
            tcp_exchange(101, 501, TcpFlags.ACK, 0, t + 10_000, uplink=False),
            # seq 101..1101 downlink observed; 1101..2101 never observed;
            # then 2101 observed, then 1101 retransmitted.
            tcp_exchange(101, 501, TcpFlags.ACK | TcpFlags.PSH, 1000,
                         t + 20_000, uplink=False, mac_seq=20),
            tcp_exchange(2101, 501, TcpFlags.ACK | TcpFlags.PSH, 1000,
                         t + 30_000, uplink=False, mac_seq=21),
            tcp_exchange(1101, 501, TcpFlags.ACK | TcpFlags.PSH, 1000,
                         t + 80_000, uplink=False, mac_seq=22),
        ]
        flows = collect_flows(exchanges)
        stats = TransportInference().run(flows)
        assert stats.loss_events == 1
        assert flows[0].loss_events[0].cause is LossCause.WIRED

    def test_no_losses_clean_flow(self):
        flows = collect_flows(full_flow())
        stats = TransportInference().run(flows)
        assert stats.loss_events == 0


class TestHiddenSegments:
    def test_ack_covering_hole_counts_omission(self):
        """Sequence hole covered by an ACK: the monitors missed a packet
        that was in fact delivered (Section 5.2)."""
        t = 1_000_000
        exchanges = [
            tcp_exchange(1000, 0, TcpFlags.SYN, 0, t, uplink=True),
            tcp_exchange(9000, 1001, TcpFlags.SYN | TcpFlags.ACK, 0,
                         t + 5_000, uplink=False),
            tcp_exchange(1001, 9001, TcpFlags.ACK, 0, t + 10_000, uplink=True),
            tcp_exchange(1001, 9001, TcpFlags.ACK | TcpFlags.PSH, 1000,
                         t + 20_000, uplink=True, mac_seq=30),
            # 2001..3001 never observed (monitor omission)...
            tcp_exchange(3001, 9001, TcpFlags.ACK | TcpFlags.PSH, 1000,
                         t + 40_000, uplink=True, mac_seq=31),
            # ...but the server ACK covers everything through 4001.
            tcp_exchange(9001, 4001, TcpFlags.ACK, 0, t + 50_000,
                         uplink=False),
        ]
        flows = collect_flows(exchanges)
        stats = TransportInference().run(flows)
        assert stats.hidden_segments_inferred == 1
        assert flows[0].inferred_hidden_segments == 1


class TestRttEstimation:
    def test_handshake_rtt_sampled(self):
        flows = collect_flows(full_flow())
        TransportInference().run(flows)
        assert flows[0].rtt_samples_us
        assert flows[0].rtt_samples_us[0] == pytest.approx(5_000)

    def test_retransmitted_segments_excluded(self):
        clean = collect_flows(full_flow())
        TransportInference().run(clean)
        lossy = collect_flows(
            full_flow(with_losses={1: {"delivered": False, "retransmit": True}})
        )
        TransportInference().run(lossy)
        # The lossy flow has one fewer valid data RTT sample.
        assert len(lossy[0].rtt_samples_us) == len(clean[0].rtt_samples_us) - 1

    def test_median_rtt(self):
        flows = collect_flows(full_flow())
        TransportInference().run(flows)
        assert flows[0].median_rtt_us is not None
        assert flows[0].median_rtt_us > 0
