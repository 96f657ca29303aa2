"""Streaming analysis passes: every figure, one pipeline pass, bounded memory.

The classic workflow materializes a full ``JigsawReport`` — every jframe,
attempt and exchange — and then walks those lists once per analysis.
This example taps the pipeline's one-pass loop directly instead: each
analysis registers as a :class:`~repro.core.passes.PipelinePass`, the
report's per-layer lists are never built (``materialize=False``), and
the results come back on ``report.passes``.

Run with::

    python examples/streaming_analyses.py
"""

import gc
import tracemalloc

from repro.core import JigsawPipeline
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
from repro.sim import ScenarioConfig, run_scenario


def main() -> None:
    config = ScenarioConfig.small(seed=7, fraction_11b_clients=0.25)
    duration = config.duration_us
    print(f"simulating {duration / 1e6:.0f}s of 802.11b/g activity...")
    artifacts = run_scenario(config)

    # Every Section 6/7 analysis, registered on one streaming run.  With
    # materialize=False the pipeline never retains the jframe / attempt /
    # exchange lists — analyses fold over the streams as they flow.
    bin_us = duration // 10
    # Passes that need the behavioural client/AP classification share one
    # tracker — the classification work happens once per jframe.
    tracker = StationTracker()
    passes = [
        SummaryPass(duration, tracker=tracker),
        DispersionPass(),
        ActivityPass(duration, bin_us=bin_us, tracker=tracker),
        BroadcastAirtimePass(duration),
        ProtectionPass(
            duration,
            bin_us=bin_us,
            practical_timeout_us=bin_us,
            tracker=tracker,
        ),
        InterferencePass(min_packets=20, tracker=tracker),
        TcpLossPass(),
        WiredCoveragePass(artifacts.wired_trace),
    ]

    gc.collect()
    tracemalloc.start()
    report = JigsawPipeline().run(
        artifacts.radio_traces,
        clock_groups=artifacts.clock_groups(),
        passes=passes,
        materialize=False,
    )
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    print(f"\nreport.materialized = {report.materialized} "
          f"(jframe list length: {len(report.jframes)})")
    print(f"pipeline peak heap: {peak / 1e6:.1f} MB\n")

    print("=== Table 1 (SummaryPass) ===")
    print(report.passes["summary"].format_table())

    cdf = report.passes["dispersion"]
    print("\n=== Figure 4 (DispersionPass) ===")
    print(f"p90 dispersion {cdf.p90_us:.1f} us, p99 {cdf.p99_us:.1f} us "
          "(paper: <10 us / <20 us)")

    timeline = report.passes["activity"]
    print("\n=== Figure 8 (ActivityPass) ===")
    print(f"peak active clients: {timeline.peak_clients()}")
    for channel, share in report.passes["broadcast_airtime"].items():
        print(f"  ch{channel} broadcast airtime: {100 * share:.1f}%")

    print("\n=== Figure 9 (InterferencePass) ===")
    interference = report.passes["interference"]
    print(f"scored pairs: {interference.n_pairs}, "
          f"interfered: {interference.fraction_pairs_interfered():.2f}")

    print("\n=== Figure 10 (ProtectionPass) ===")
    protection = report.passes["protection"]
    print(f"overprotective APs: {protection.total_overprotective_aps()}, "
          f"peak affected 11g fraction: "
          f"{protection.peak_affected_fraction():.2f}")

    print("\n=== Figure 11 (TcpLossPass) ===")
    print(report.passes["tcp_loss"].format_table())

    print("\n=== Figure 6 (WiredCoveragePass) ===")
    print(f"overall coverage: {report.passes['wired_coverage'].overall():.3f}")


if __name__ == "__main__":
    main()
