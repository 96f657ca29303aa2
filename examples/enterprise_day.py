"""A day in an enterprise WLAN: every analysis from the paper in one run.

Simulates the paper's deployment shape (four floors, ~39 pods / 156 monitor
radios, 35 APs, 60 clients with a diurnal workload, microwave interference,
an uncovered administrative wing) and reproduces Sections 6 and 7:
coverage, activity, interference, protection mode, and TCP loss.

All analyses run as streaming passes registered on a single
``materialize=False`` pipeline run — the building's jframe/attempt/
exchange lists are never held in memory, which is how the same code
scales past building-sized traces.

Run with::

    python examples/enterprise_day.py        # ~2-3 minutes
"""

from repro.core.analysis import (
    ActivityPass,
    BroadcastAirtimePass,
    DispersionPass,
    InterferencePass,
    ProtectionPass,
    StationTracker,
    SummaryPass,
    TcpLossPass,
    WiredCoveragePass,
)
from repro.core.pipeline import JigsawPipeline
from repro.sim import ScenarioConfig, run_scenario


def main() -> None:
    config = ScenarioConfig.building(seed=7, duration_us=6_000_000)
    duration = config.duration_us
    bin_us = duration // 24
    print("simulating a (compressed) day in the building...")
    artifacts = run_scenario(config)
    print("reconstructing with Jigsaw (streaming passes, no report lists)...")
    tracker = StationTracker()  # one shared client/AP classification
    report = JigsawPipeline().run(
        artifacts.radio_traces,
        clock_groups=artifacts.clock_groups(),
        materialize=False,
        passes=[
            SummaryPass(duration, tracker=tracker),
            DispersionPass(),
            WiredCoveragePass(artifacts.wired_trace),
            ActivityPass(duration, bin_us=bin_us, tracker=tracker),
            BroadcastAirtimePass(duration),
            InterferencePass(min_packets=25, tracker=tracker),
            ProtectionPass(
                duration,
                bin_us=bin_us,
                practical_timeout_us=max(
                    bin_us, 2 * config.client_rescan_interval_us
                ),
                tracker=tracker,
            ),
            TcpLossPass(),
        ],
    )

    print("\n=== Table 1: trace summary ===")
    print(report.passes["summary"].format_table())

    print("\n=== Figure 4: synchronization quality ===")
    print(report.passes["dispersion"].format_table())

    print("\n=== Figure 6: coverage vs the wired trace ===")
    print(report.passes["wired_coverage"].format_table())

    print("\n=== Figure 8: activity (compressed day, one bin per 'hour') ===")
    print(report.passes["activity"].format_table(max_rows=12))
    print("broadcast airtime share:", {
        f"ch{ch}": f"{100 * share:.1f}%"
        for ch, share in report.passes["broadcast_airtime"].items()
    })

    print("\n=== Figure 9: co-channel interference ===")
    print(report.passes["interference"].format_table())

    print("\n=== Figure 10: 802.11g protection ===")
    print(report.passes["protection"].format_table(max_rows=8))

    print("\n=== Figure 11: TCP loss decomposition ===")
    print(report.passes["tcp_loss"].format_table())


if __name__ == "__main__":
    main()
