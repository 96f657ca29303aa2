"""The wired distribution network.

Connects APs to wired hosts, injects wired-path delay and loss (the
non-wireless component of TCP loss that Figure 11 separates out), relays
broadcasts to every AP "at roughly the same time" (Section 7.1), and keeps
the wired-side trace used as ground truth by the Section 6 coverage
experiments: every unicast packet that crosses the distribution network on
its way to or from a wireless client.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from ..dot11.address import MacAddress
from ..mac.ap import AccessPoint
from ..sim.kernel import Kernel
from .packets import IpPacket, ip_to_bytes, try_parse_packet


@dataclass(frozen=True)
class WiredTraceRecord:
    """One packet observed on the distribution network.

    ``payload`` is the exact frame body the AP bridges, so the coverage
    analysis can match wired records against wireless captures by content —
    the same join the paper performs between its two traces.
    """

    time_us: int
    downlink: bool               # True: wire -> client; False: client -> wire
    client_mac: MacAddress
    ap_mac: MacAddress
    payload: bytes


class WiredHost:
    """A host on the wired side (server, management box)."""

    def __init__(self, ip: int) -> None:
        self.ip = ip
        self._sinks: List[Callable[[IpPacket], None]] = []

    def add_sink(self, sink: Callable[[IpPacket], None]) -> None:
        self._sinks.append(sink)

    def deliver(self, packet: IpPacket) -> None:
        for sink in self._sinks:
            sink(packet)


#: Round trip of the upstream path; each direction costs half.
WIRED_RTT_US = 20_000


class WiredNetwork:
    """The building's distribution network plus its upstream path."""

    def __init__(
        self,
        kernel: Kernel,
        rng: np.random.Generator,
        loss_rate: float = 0.0,
    ) -> None:
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss rate must be in [0, 1)")
        self._kernel = kernel
        self._rng = rng
        self.loss_rate = loss_rate
        self.one_way_us = WIRED_RTT_US // 2
        self._hosts: Dict[int, WiredHost] = {}
        self._aps: List[AccessPoint] = []
        #: client MAC -> (IP, serving AP)
        self._clients: Dict[MacAddress, tuple] = {}
        self._ip_to_mac: Dict[int, MacAddress] = {}
        #: The wired trace (coverage ground truth).
        self.trace: List[WiredTraceRecord] = []
        # Counters for the Fig 11 decomposition's ground truth.
        self.wired_drops = 0
        self.packets_relayed = 0

    # --- topology ----------------------------------------------------------

    def add_host(self, ip: int) -> WiredHost:
        host = self._hosts.setdefault(ip, WiredHost(ip))
        return host

    def register_ap(self, ap: AccessPoint) -> None:
        self._aps.append(ap)
        ap.uplink_sink = lambda client, payload, ap=ap: self._on_uplink(
            ap, client, payload
        )

    def register_client(
        self, mac: MacAddress, ip: int, ap: AccessPoint
    ) -> None:
        self._clients[mac] = (ip, ap)
        self._ip_to_mac[ip] = mac

    def reassign_client(self, mac: MacAddress, ap: AccessPoint) -> None:
        """Repoint a roamed client's downlink bridging at its new AP.

        The real distribution network learns this from the new AP's
        bridge-table update on reassociation; here the roam scheduler
        tells us directly.
        """
        entry = self._clients.get(mac)
        if entry is None:
            raise KeyError(f"unknown wireless client {mac}")
        self._clients[mac] = (entry[0], ap)

    def client_ip(self, mac: MacAddress) -> Optional[int]:
        entry = self._clients.get(mac)
        return entry[0] if entry else None

    @property
    def aps(self) -> List[AccessPoint]:
        return list(self._aps)

    # --- downlink: wired host -> wireless client ------------------------------

    def send_to_client(self, packet: IpPacket) -> None:
        """A wired host sends toward a wireless client's IP."""
        mac = self._ip_to_mac.get(packet.dst)
        if mac is None:
            return
        if self._rng.random() < self.loss_rate:
            self.wired_drops += 1
            return
        _, ap = self._clients[mac]
        payload = ip_to_bytes(packet)

        def arrive() -> None:
            self.trace.append(
                WiredTraceRecord(
                    time_us=self._kernel.now_us,
                    downlink=True,
                    client_mac=mac,
                    ap_mac=ap.mac,
                    payload=payload,
                )
            )
            self.packets_relayed += 1
            ap.send_downlink(mac, payload)

        self._kernel.after(self.one_way_us, arrive)

    # --- uplink: client -> wired host -----------------------------------------

    def _on_uplink(
        self, ap: AccessPoint, client: MacAddress, payload: bytes
    ) -> None:
        self.trace.append(
            WiredTraceRecord(
                time_us=self._kernel.now_us,
                downlink=False,
                client_mac=client,
                ap_mac=ap.mac,
                payload=payload,
            )
        )
        self.packets_relayed += 1
        packet = try_parse_packet(payload)
        if packet is None or not isinstance(packet, IpPacket):
            return
        if self._rng.random() < self.loss_rate:
            self.wired_drops += 1
            return
        host = self._hosts.get(packet.dst)
        if host is None:
            return
        self._kernel.after(self.one_way_us, lambda: host.deliver(packet))

    # --- broadcast relay -----------------------------------------------------------

    def broadcast(self, payload: bytes) -> None:
        """Relay a wired broadcast to every AP at (roughly) the same time.

        "because they are delivered to all APs at the same time, they are
        broadcast on all APs on all channels at roughly the same time as
        well — likely interfering with themselves in the process"
        (Section 7.1).  Per-AP jitter is only the switch forwarding spread
        (microseconds), not the random jitter the paper recommends adding.
        """
        for ap in self._aps:
            jitter = int(self._rng.integers(0, 50))
            self._kernel.after(
                self.one_way_us + jitter,
                lambda ap=ap: ap.send_broadcast(payload),
            )
