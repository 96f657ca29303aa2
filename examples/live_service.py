"""Always-on service mode: live ingest, mid-run windows, crash recovery.

The batch pipeline answers "what happened in this trace" after the
trace ends.  Service mode answers it *while the trace is happening*:
radios push records into a live daemon, windowed analyses are published
as the emission watermark passes them, and the whole mid-merge state is
checkpointed so a crashed daemon resumes where it left off — with
results bit-identical to a run that never crashed.

This example drives a simulated association storm through the daemon,
kills it mid-trace (no flushing, no goodbye — the SIGKILL model),
restores from the last periodic checkpoint, and verifies the resumed
run's report against both an uninterrupted daemon and the batch
pipeline.

Run with::

    python examples/live_service.py
"""

from pathlib import Path
from tempfile import TemporaryDirectory

from repro.core import JigsawPipeline
from repro.service import JigsawDaemon
from repro.service.windows import WindowedLossPass, WindowedSummaryPass
from repro.sim.registry import scenario_config
from repro.sim.stream import live_feed, stream_scenario

WINDOW_US = 100_000
CHECKPOINT_EVERY = 2_000


def make_passes():
    return [WindowedSummaryPass(WINDOW_US), WindowedLossPass(WINDOW_US)]


def fingerprint(report):
    return [
        (jf.timestamp_us, jf.kind, jf.channel, jf.fcs)
        for jf in report.jframes
    ]


def main() -> None:
    config = scenario_config("flash_crowd", "tiny", seed=13)
    print(f"scenario: flash_crowd/tiny, {config.duration_us / 1e6:.1f}s "
          "of association-storm traffic\n")

    with TemporaryDirectory() as tmp:
        checkpoint = Path(tmp) / "service.ckpt"

        # --- phase 1: serve live, then die mid-trace -----------------
        daemon = JigsawDaemon(
            live_feed(config),
            passes=make_passes(),
            checkpoint_path=checkpoint,
            checkpoint_every=CHECKPOINT_EVERY,
        )
        crashed = daemon.serve(stop_after_records=3 * CHECKPOINT_EVERY)
        assert crashed is None, "the daemon was supposed to crash"
        print(f"daemon killed after {daemon.total_consumed} records")
        print(f"  watermark at death: {daemon.watermark_us / 1e3:.0f} ms")
        print(f"  windows already published: {len(daemon.published_windows)}"
              " (live output — no finish() involved)")
        print(f"  checkpoints on disk: {daemon.checkpoints_written} "
              f"(serve() blocked {daemon.checkpoint_seconds_total * 1e3:.1f} ms "
              f"by them; the writers spent "
              f"{daemon.checkpoint_writer_cpu_s * 1e3:.1f} ms of CPU)")

        # --- phase 2: restore and run to end of stream ---------------
        restored = JigsawDaemon.restore(
            checkpoint, live_feed(config), checkpoint_every=CHECKPOINT_EVERY
        )
        print(f"\nrestored from {checkpoint.name} at "
              f"{restored.total_consumed} records; resuming...")
        svc = restored.serve()
        assert svc is not None and svc.resumed
        print(f"resumed run finished: {len(svc.report.jframes)} jframes, "
              f"{len(svc.published)} published windows")

        # --- phase 3: prove nothing was lost or invented -------------
        uninterrupted = JigsawDaemon(
            live_feed(config), passes=make_passes()
        ).serve()
        streamed = stream_scenario(config)
        batch = JigsawPipeline().run(
            streamed.traces, clock_groups=streamed.clock_groups()
        )
        assert fingerprint(svc.report) == fingerprint(uninterrupted.report)
        assert svc.report.unification.stats == batch.unification.stats
        assert [w.key for w in svc.published] == [
            w.key for w in uninterrupted.published
        ]
        print("\ncrash/resume parity: OK "
              "(jframes, stats and published windows all bit-identical "
              "to an uninterrupted run and to the batch pipeline)")

        losses = [
            w for w in svc.published
            if w.pass_name == "windowed_loss" and w.payload["exchanges"]
        ]
        print("\nper-window delivery (windowed_loss):")
        for w in losses[:5]:
            print(f"  [{w.start_us / 1e3:6.0f}, {w.end_us / 1e3:6.0f}) ms  "
                  f"exchanges={w.payload['exchanges']:4d}  "
                  f"delivered={w.payload['delivered']:4d}  "
                  f"retries={w.payload['retransmissions']:4d}")


if __name__ == "__main__":
    main()
