"""The medium's delivery tables agree with the formulas they replace.

The medium reads channel coupling from a precomputed table and path loss
from a per-pair cache, and hoists everything that depends only on the
transmission out of its receiver loop.  These tests evaluate the
triangular overlap formula and ``PropagationModel.rssi_dbm`` directly,
on a fresh model, and hold every delivered level to them exactly —
including for listeners that retune or move while a frame is on the air,
whose *current* channel and position must be the ones used.
"""

import math

from helpers import DST, SRC
from repro.dot11.channels import Channel, OVERLAP
from repro.dot11.frame import make_data
from repro.dot11.rates import RATE_1
from repro.dot11.serialize import frame_to_bytes
from repro.mac.medium import Medium
from repro.phy.noisefloor import BroadbandInterferer
from repro.phy.propagation import PropagationModel
from repro.phy.reception import CARRIER_SENSE_DBM
from repro.sim.kernel import Kernel

SHADOWING_SEED = 3
POWER_DBM = 15.0


def triangular(a, b):
    """Channel ``b``'s power landing in channel ``a``: 1.0 co-channel,
    falling linearly to 0 at 25 MHz of center separation."""

    def center(n):
        return 2484.0 if n == 14 else 2412.0 + 5.0 * (n - 1)

    separation = abs(center(a) - center(b))
    return max(0.0, 1.0 - separation / 25.0) if separation < 25.0 else 0.0


def direct_level(power, tx_position, tx_channel, rx_position, rx_channel):
    """The received level evaluated from scratch, or None if orthogonal."""
    coupling = triangular(rx_channel, tx_channel)
    if coupling <= 0.0:
        return None
    level = PropagationModel(shadowing_seed=SHADOWING_SEED).rssi_dbm(
        power, tx_position, rx_position
    )
    if coupling < 1.0:
        level += 10.0 * math.log10(coupling)
    return level


class Listener:
    """A receiver that records what it heard, where, and on which channel."""

    def __init__(self, position, channel):
        self.position = position
        self.channel = Channel(channel)
        self.heard = []

    def on_air_event(self, tx, rssi_dbm, interferer_levels_dbm):
        self.heard.append(
            (tx, self.position, self.channel.number, rssi_dbm,
             interferer_levels_dbm)
        )


def new_medium(interferers=()):
    kernel = Kernel()
    medium = Medium(
        kernel, PropagationModel(shadowing_seed=SHADOWING_SEED), interferers
    )
    return kernel, medium


def send(medium, channel, position, body=b"q" * 600):
    frame = make_data(SRC, DST, DST, seq=1, body=body)
    return medium.transmit(
        frame, frame_to_bytes(frame), RATE_1, Channel(channel),
        position=position, power_dbm=POWER_DBM, transmitter_id="t",
    )


def assert_levels_direct(listener, overlaps=None, interferers=()):
    """Every heard event's RSSI and interference equal direct evaluation;
    ``overlaps`` maps a txid to the transmissions that overlapped it."""
    assert listener.heard
    for tx, position, channel, rssi, levels in listener.heard:
        assert rssi == direct_level(
            tx.tx_power_dbm, tx.tx_position, tx.channel.number, position,
            channel,
        )
        expected = []
        for other in (overlaps or {}).get(tx.txid, ()):
            level = direct_level(
                other.tx_power_dbm, other.tx_position, other.channel.number,
                position, channel,
            )
            if level is not None:
                expected.append(level)
        prop = PropagationModel(shadowing_seed=SHADOWING_SEED)
        for source in interferers:
            if source.active_at(tx.start_us):
                expected.append(
                    prop.rssi_dbm(source.power_dbm, source.position, position)
                )
        assert levels == tuple(expected)


def test_overlap_table_is_the_triangular_formula():
    for a in range(1, 15):
        for b in range(1, 15):
            assert OVERLAP[a][b] == triangular(a, b) == OVERLAP[b][a]
            assert Channel(a).overlap_fraction(Channel(b)) == triangular(a, b)


def test_roaming_listener_is_heard_at_its_current_channel_and_position():
    kernel, medium = new_medium()
    roamer = Listener((5.0, 9.0, 2.5), 1)
    medium.attach(roamer)

    first = send(medium, 1, (0.0, 9.0, 2.5))
    # Mid-frame roam to a partly overlapping channel on another floor.
    kernel.at(
        first.start_us + 100,
        lambda: setattr(roamer, "position", (22.0, 4.0, 6.5)),
    )
    kernel.at(
        first.start_us + 200, lambda: setattr(roamer, "channel", Channel(3))
    )
    kernel.run_until(first.end_us + 10)
    # And again, to a different spot and channel, before a second frame.
    roamer.position, roamer.channel = (40.0, 12.0, 2.5), Channel(2)
    second = send(medium, 1, (0.0, 9.0, 2.5))
    kernel.run_until(second.end_us + 10)

    (tx1, pos1, ch1, _, _), (tx2, pos2, ch2, _, _) = roamer.heard
    assert (tx1, pos1, ch1) == (first, (22.0, 4.0, 6.5), 3)
    assert (tx2, pos2, ch2) == (second, (40.0, 12.0, 2.5), 2)
    assert_levels_direct(roamer)


def test_sweeping_listener_hears_only_while_tuned_near_the_sender():
    kernel, medium = new_medium()
    sweeper = Listener((8.0, 3.0, 2.5), 1)
    medium.attach(sweeper)
    # A frame completes every 8 ms on channel 1 while the listener sweeps
    # 1 -> 3 -> 6 -> 11 -> 4, retuning every 10 ms.
    sweep = [1, 3, 6, 11, 4]
    for step, channel in enumerate(sweep):
        kernel.at(
            step * 10_000 + 5,
            lambda c=channel: setattr(sweeper, "channel", Channel(c)),
        )
    sent = []
    for k in range(7):
        kernel.at(
            k * 8_000 + 1,
            lambda: sent.append(
                send(medium, 1, (0.0, 0.0, 2.5), body=b"x" * 100)
            ),
        )
    kernel.run_until(70_000)

    tuned = {}
    for tx in sent:
        step = min((tx.end_us - 5) // 10_000, len(sweep) - 1)
        tuned[tx.txid] = sweep[step]
    heard = {tx.txid: channel for tx, _, channel, _, _ in sweeper.heard}
    assert heard == {
        txid: channel for txid, channel in tuned.items()
        if triangular(channel, 1) > 0.0
    }
    assert set(heard.values()) == {1, 3, 4}
    assert_levels_direct(sweeper)


def test_interference_uses_each_overlap_at_the_listener():
    source = BroadbandInterferer(
        position=(12.0, 6.0, 2.5), power_dbm=25.0, period_us=10_000
    )
    kernel, medium = new_medium([source])
    listener = Listener((6.0, 6.0, 2.5), 2)
    medium.attach(listener)
    a = send(medium, 1, (0.0, 0.0, 2.5))
    b = send(medium, 4, (15.0, 2.0, 6.5), body=b"y" * 200)
    c = send(medium, 11, (3.0, 3.0, 2.5), body=b"z" * 200)
    kernel.at(
        a.start_us + 50, lambda: setattr(listener, "position", (9.0, 1.0, 2.5))
    )
    kernel.run_until(a.end_us + 10)

    assert [tx for tx, *_ in listener.heard] == [b, a]
    assert_levels_direct(
        listener, {a.txid: [b, c], b.txid: [a, c]}, [source]
    )
    # Both frames saw the other one and the active oven.
    assert all(len(levels) == 2 for *_, levels in listener.heard)


def test_busy_until_on_adjacent_channels_matches_direct_evaluation():
    kernel, medium = new_medium()
    tx = send(medium, 1, (0.0, 9.0, 2.5), body=b"q" * 1400)
    flipped = False
    for x in range(0, 80, 4):
        position = (float(x), 9.0, 2.5)
        for channel in range(1, 15):
            level = direct_level(
                POWER_DBM, tx.tx_position, 1, position, channel
            )
            audible = level is not None and level >= CARRIER_SENSE_DBM
            assert medium.busy_until(Channel(channel), position) == (
                tx.end_us if audible else 0
            )
            cochannel = direct_level(POWER_DBM, tx.tx_position, 1, position, 1)
            flipped |= cochannel >= CARRIER_SENSE_DBM and not audible and (
                level is not None
            )
    # Some position is audible co-channel but not through partial overlap.
    assert flipped
