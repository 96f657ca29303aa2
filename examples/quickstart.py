"""Quickstart: simulate a small deployment, run Jigsaw, print the results.

Run with::

    python examples/quickstart.py
"""

from repro.core import JigsawPipeline
from repro.core.analysis import ActivityPass, DispersionPass
from repro.sim import ScenarioConfig, run_scenario


def main() -> None:
    # 1. Simulate a two-floor deployment: 8 sensor pods (32 monitor radios),
    #    8 APs on channels 1/6/11, 12 clients running web/ssh/scp flows.
    config = ScenarioConfig.small(seed=7)
    print(f"simulating {config.duration_us / 1e6:.0f}s of 802.11b/g activity...")
    artifacts = run_scenario(config)
    print(
        f"  {len(artifacts.radio_traces)} radio traces, "
        f"{sum(len(t) for t in artifacts.radio_traces):,} capture records, "
        f"{len(artifacts.ground_truth):,} true transmissions"
    )

    # 2. Run the Jigsaw pipeline: bootstrap synchronization, unification,
    #    link-layer and transport-layer reconstruction.  Analyses ride the
    #    same pass as registered passes; here, the paper's Figure 4.
    report = JigsawPipeline().run(
        artifacts.radio_traces,
        clock_groups=artifacts.clock_groups(),
        passes=[DispersionPass()],
    )
    print("\n--- Jigsaw report ---")
    print(report.summary())

    # 3. Look at a few reconstructed TCP flows.
    print("\n--- sample flows ---")
    for flow in report.completed_flows()[:5]:
        rtt = flow.median_rtt_us
        rtt_text = f"{rtt / 1000:.1f} ms" if rtt else "n/a"
        print(
            f"  {flow.key}: {flow.n_segments} segments, "
            f"{flow.data_bytes_observed:,} data bytes, median RTT {rtt_text}, "
            f"{len(flow.loss_events)} losses"
        )

    # 4. And the synchronization quality (the paper's Figure 4).
    cdf = report.passes["dispersion"]
    print(
        f"\nsync quality: p90 dispersion {cdf.p90_us:.1f} us, "
        f"p99 {cdf.p99_us:.1f} us (paper: <10 us / <20 us)"
    )

    # 5. Passes need no materialized report lists: materialize=False
    #    bounds memory for huge traces.
    #    (See examples/streaming_analyses.py for the full tour.)
    duration = config.duration_us
    streaming = JigsawPipeline().run(
        artifacts.radio_traces,
        clock_groups=artifacts.clock_groups(),
        passes=[DispersionPass(), ActivityPass(duration, bin_us=duration // 10)],
        materialize=False,
    )
    assert streaming.passes["dispersion"].samples_us == cdf.samples_us
    print(
        f"streaming passes: identical Figure 4 from a materialize=False run "
        f"(jframe list length: {len(streaming.jframes)})"
    )


if __name__ == "__main__":
    main()
