"""TCP loss decomposition — Section 7.4, Figure 11.

"We assemble all flows that complete a handshake (eliminating port scans
and connection failures).  From these flows we then calculate the loss
rate ...  by analyzing the frame exchanges making up each TCP segment we
are able to determine if each loss — as seen by TCP — is due to a lost
802.11 frame or some subsequent loss in the wired network."  The paper's
headline: the wireless component dominates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..passes import PassContext, PipelinePass
from ..transport.flows import TcpFlow
from ..transport.inference import LossCause


@dataclass
class FlowLossRates:
    """Loss rates of one completed flow, split by cause."""

    flow: TcpFlow
    data_segments: int
    wireless_losses: int
    wired_losses: int
    unknown_losses: int

    @property
    def total_losses(self) -> int:
        return self.wireless_losses + self.wired_losses + self.unknown_losses

    @property
    def loss_rate(self) -> float:
        return self.total_losses / self.data_segments if self.data_segments else 0.0

    @property
    def wireless_loss_rate(self) -> float:
        return (
            self.wireless_losses / self.data_segments
            if self.data_segments
            else 0.0
        )

    @property
    def wired_loss_rate(self) -> float:
        return (
            self.wired_losses / self.data_segments if self.data_segments else 0.0
        )


@dataclass
class TcpLossResult:
    flows: List[FlowLossRates]

    @property
    def n_flows(self) -> int:
        return len(self.flows)

    def aggregate_rates(self) -> Tuple[float, float, float]:
        """(wireless, wired, unknown) loss rates over all data segments."""
        segments = sum(f.data_segments for f in self.flows)
        if segments == 0:
            return 0.0, 0.0, 0.0
        return (
            sum(f.wireless_losses for f in self.flows) / segments,
            sum(f.wired_losses for f in self.flows) / segments,
            sum(f.unknown_losses for f in self.flows) / segments,
        )

    def wireless_dominates(self) -> bool:
        """The paper's headline claim for Figure 11."""
        wireless, wired, _ = self.aggregate_rates()
        return wireless >= wired

    def loss_rate_cdf(self, cause: str = "total") -> List[float]:
        """Sorted per-flow loss rates for the Figure 11 CDF."""
        if cause == "wireless":
            return sorted(f.wireless_loss_rate for f in self.flows)
        if cause == "wired":
            return sorted(f.wired_loss_rate for f in self.flows)
        return sorted(f.loss_rate for f in self.flows)

    def format_table(self) -> str:
        wireless, wired, unknown = self.aggregate_rates()
        lines = [
            f"completed flows:        {self.n_flows}",
            f"wireless loss rate:     {wireless:.4f}",
            f"wired loss rate:        {wired:.4f}",
            f"unknown loss rate:      {unknown:.4f}",
            f"wireless dominates:     {self.wireless_dominates()} "
            f"(paper: wireless component dominant)",
        ]
        return "\n".join(lines)


class TcpLossPass(PipelinePass):
    """Streaming Figure 11: fold each completed flow as it is delivered.

    Flows arrive on :meth:`on_flow` after transport inference, so their
    loss events are already classified.
    """

    name = "tcp_loss"

    def __init__(self) -> None:
        self._rows: List[FlowLossRates] = []

    def on_flow(self, flow: TcpFlow) -> None:
        if not flow.handshake_complete:
            return
        wireless = sum(
            1 for e in flow.loss_events if e.cause is LossCause.WIRELESS
        )
        wired = sum(1 for e in flow.loss_events if e.cause is LossCause.WIRED)
        unknown = sum(
            1 for e in flow.loss_events if e.cause is LossCause.UNKNOWN
        )
        self._rows.append(
            FlowLossRates(
                flow=flow,
                data_segments=len(flow.data_observations),
                wireless_losses=wireless,
                wired_losses=wired,
                unknown_losses=unknown,
            )
        )

    def finish(self, context: PassContext) -> TcpLossResult:
        return TcpLossResult(flows=self._rows)
