"""Fault tolerance end to end: damaged traces, honest health.

A 24-hour production capture never comes back pristine: NFS writes get
cut short, monitor disks corrupt records and radios reboot mid-capture.
This example injects all of that on purpose and shows the pipeline
completing anyway, with ``report.health`` itemizing exactly what was
lost:

1. capture a scenario and write its traces through the sim fault
   harness (:func:`repro.sim.write_faulty_traces`) — random header
   corruption, one file truncated mid-record, one radio blacked out;
2. show the strict reader refusing the damaged files (the historical
   behavior), then reopen with ``policy="skip"`` — the tolerant decoder
   resynchronizes at the next valid record boundary and counts what it
   skipped;
3. print the :class:`~repro.core.faults.HealthReport` next to the
   injector's ground-truth :class:`~repro.sim.faults.FaultPlan`.

Run with::

    python examples/faulty_traces.py [--building]

``--building`` uses the building-scale scenario (~190 radios, a few
minutes); the default small scale finishes in seconds.
"""

import sys
import tempfile
import time
from pathlib import Path

from repro.core import JigsawPipeline
from repro.jtrace import open_trace_streams, read_traces
from repro.sim import (
    FaultConfig,
    ScenarioConfig,
    run_scenario,
    write_faulty_traces,
)


def main() -> None:
    building = "--building" in sys.argv
    scale = ScenarioConfig.building if building else ScenarioConfig.small
    faults = FaultConfig(
        corrupt_rate=0.002,      # ~1 record in 500 gets its header smashed
        truncate_radios=1,       # one file stops mid-record
        blackout_radios=1,       # one radio goes dark for 20% of the run
    )
    config = scale(seed=7, faults=faults)

    print(f"capturing {'building' if building else 'small'} scenario ...")
    artifacts = run_scenario(config)
    traces = artifacts.radio_traces
    clock_groups = artifacts.clock_groups()
    total = sum(len(t) for t in traces)
    print(f"  {len(traces)} radios, {total:,} records captured")

    out = Path(tempfile.mkdtemp(prefix="jigsaw-faulty-"))
    plan = write_faulty_traces(traces, out, config)
    print(f"\ninjected faults while writing -> {out}")
    print(f"  ground truth: {plan.summary()}")

    # The strict reader (the historical default) refuses damaged files.
    try:
        read_traces(out)
    except ValueError as exc:
        print(f"\nstrict read fails as it should:\n  ValueError: {exc}")

    # Tolerant ingest: skip what cannot be decoded, count what was skipped.
    started = time.perf_counter()
    report = JigsawPipeline().run(
        open_trace_streams(out, policy="skip"), clock_groups=clock_groups
    )
    elapsed = time.perf_counter() - started

    print(f"\npipeline completed in {elapsed:.1f}s despite everything:")
    print(report.summary())

    health = report.health
    n_corrupt = sum(len(v) for v in plan.corrupted_records.values())
    print("\nhealth vs ground truth:")
    print(f"  corrupted records injected: {n_corrupt:4d}   "
          f"resync events counted: {health.ingest.records_skipped}")
    print(f"  truncated files injected:   {len(plan.truncated):4d}   "
          f"truncated tails observed: {health.ingest.truncated_tails + health.ingest.stream_errors}")
    print(f"  blackout holes injected:    {len(plan.blackouts):4d}   "
          f"(records silently absent — invisible to decode, visible as a "
          f"coverage gap)")
    assert health.ingest.records_skipped > 0, "the damage must be counted"
    assert health.degraded, "a damaged run must report degraded health"
    print("\nreport.health.degraded =", health.degraded)


if __name__ == "__main__":
    main()
