"""The paper's motivating question: "Why is the network slow?"

The conclusion of the paper frames Jigsaw as a building block for
answering exactly this.  This example plays network operator: it takes a
building trace, finds the clients with the worst TCP behaviour, and uses
the global cross-layer viewpoint to attribute each one's trouble to a
concrete cause — co-channel interference, broadband (microwave) noise,
over-conservative 802.11g protection, or plain wired-path loss.

Run with::

    python examples/why_is_the_network_slow.py
"""

from collections import defaultdict

from repro.core.analysis import (
    InterferencePass,
    ProtectionPass,
    StationTracker,
    TcpLossPass,
)
from repro.core.pipeline import JigsawPipeline
from repro.core.transport.inference import LossCause
from repro.net.packets import format_ip
from repro.sim import ScenarioConfig, run_scenario


def main() -> None:
    config = ScenarioConfig.building(seed=11, duration_us=6_000_000)
    print("capturing and reconstructing...")
    artifacts = run_scenario(config)
    # One reconstruction pass carries every analysis the diagnosis needs:
    # per-flow TCP loss, per-link interference, and protection mode, all
    # classifying stations with one shared tracker.
    tracker = StationTracker()
    report = JigsawPipeline().run(
        artifacts.radio_traces,
        clock_groups=artifacts.clock_groups(),
        passes=[
            TcpLossPass(),
            InterferencePass(min_packets=20, tracker=tracker),
            ProtectionPass(
                config.duration_us,
                bin_us=config.duration_us // 24,
                practical_timeout_us=2 * config.client_rescan_interval_us,
                tracker=tracker,
            ),
        ],
    )
    clients, aps = tracker.finish()

    # Rank flows by loss rate.
    loss = report.passes["tcp_loss"]
    worst = sorted(loss.flows, key=lambda f: f.loss_rate, reverse=True)[:8]

    # Cross-layer context: interference estimates per link and the set of
    # overprotective APs.
    pair_rate = {
        (p.sender, p.receiver): p.interference_loss_rate
        for p in report.passes["interference"].pairs
    }
    protection = report.passes["protection"]
    overprotective = set()
    for time_bin in protection.bins:
        overprotective |= time_bin.overprotective_aps

    print(f"\nworst {len(worst)} flows by TCP loss rate:")
    for row in worst:
        flow = row.flow
        causes = defaultdict(int)
        for event in flow.loss_events:
            causes[event.cause] += 1
        # Which stations carried this flow on the air?
        stations = {
            obs.exchange.transmitter
            for obs in flow.observations
            if obs.exchange.transmitter is not None
        }
        client_macs = stations & clients
        ap_macs = stations & aps
        diagnosis = []
        if causes[LossCause.WIRELESS] > causes[LossCause.WIRED]:
            diagnosis.append("losses concentrated on the wireless hop")
            for ap in ap_macs:
                for client in client_macs:
                    rate = pair_rate.get((ap, client)) or pair_rate.get(
                        (client, ap)
                    )
                    if rate and rate > 0.05:
                        diagnosis.append(
                            f"co-channel interference on {ap}<->{client} "
                            f"(X={rate:.2f})"
                        )
        elif causes[LossCause.WIRED] > 0:
            diagnosis.append("losses beyond the AP (wired path)")
        if ap_macs & overprotective:
            diagnosis.append(
                "AP is overprotective (needless CTS-to-self overhead)"
            )
        if not diagnosis:
            diagnosis.append("no dominant cause; likely transient contention")
        print(
            f"  {format_ip(flow.key.ip_a)}:{flow.key.port_a} <-> "
            f"{format_ip(flow.key.ip_b)}:{flow.key.port_b}  "
            f"loss={row.loss_rate:.3f} "
            f"(wireless={row.wireless_losses}, wired={row.wired_losses})"
        )
        for line in diagnosis:
            print(f"      -> {line}")


if __name__ == "__main__":
    main()
