"""Tour the scenario registry: every family, tiny scale, streamed ingest.

Each registered workload family is simulated at tiny scale and fed to the
pipeline through the streaming sim->pipeline path (the same single-read
reader interface trace files use), then its family-specific signal is
printed: roam handoffs, hidden-terminal collisions, cross-channel probe
bursts, the flash-crowd wave, the campus's buildings.

Run with ``PYTHONPATH=src python examples/scenario_families.py``.
"""

from repro.core import JigsawPipeline
from repro.dot11.frame import FrameType
from repro.sim import REGISTRY
from repro.sim.stream import stream_scenario


def family_signal(name, artifacts, report):
    """One line of evidence that the family stressed what it should."""
    if name == "roaming":
        return f"{len(artifacts.roam_events)} AP handoffs"
    if name == "hidden_terminal":
        stats = report.unification.stats
        cts = sum(
            1
            for tx in artifacts.ground_truth
            if tx.frame.ftype is FrameType.CTS
        )
        return (
            f"{stats.corrupt_jframes + stats.phy_error_jframes} error "
            f"jframes, {cts} CTS-to-self"
        )
    if name == "scanning":
        channels = sorted(
            {
                tx.channel.number
                for tx in artifacts.ground_truth
                if tx.frame.ftype is FrameType.PROBE_REQUEST
            }
        )
        return f"broadcast probes on channels {channels}"
    if name == "flash_crowd":
        config = artifacts.config
        center = config.workload.flash_center
        width = config.workload.flash_width
        if not artifacts.flows:
            return "no flows (tiny run)"
        in_wave = sum(
            1
            for f in artifacts.flows
            if abs(f.start_us / config.duration_us - center) < 2 * width
        )
        return f"{in_wave}/{len(artifacts.flows)} flows inside the wave"
    if name == "campus":
        bootstrap = report.bootstrap
        return (
            f"{len(artifacts.worlds)} buildings, "
            f"{len(bootstrap.offsets_us)} radios synchronized in "
            f"{len(bootstrap.islands)} islands"
        )
    return f"{len(artifacts.flows)} flows scheduled"


def main() -> None:
    print("registered scenario families:\n")
    for family in REGISTRY:
        config = family.config(scale="tiny", seed=7)
        streamed = stream_scenario(config)
        report = JigsawPipeline().run(
            streamed.traces, clock_groups=streamed.clock_groups()
        )
        artifacts = streamed.artifacts()
        stats = report.unification.stats
        print(f"=== {family.name} ===")
        print(f"    {family.paper_focus}")
        print(
            f"    {stats.records_in:,} records -> {stats.jframes:,} "
            f"jframes (streamed ingest), "
            f"{len(report.flows)} flows reconstructed"
        )
        print(f"    signal: {family_signal(family.name, artifacts, report)}")
        print()


if __name__ == "__main__":
    main()
