"""Fault tolerance end to end: damaged traces, dying workers, honest health.

A 24-hour production capture never comes back pristine: NFS writes get
cut short, monitor disks corrupt records, radios reboot mid-capture, and
on the analysis side a pool worker can be OOM-killed halfway through the
merge.  This example injects all of that on purpose and shows the
pipeline completing anyway, with ``report.health`` itemizing exactly
what was lost:

1. capture a scenario and write its traces through the sim fault
   harness (:func:`repro.sim.write_faulty_traces`) — random header
   corruption, one file truncated mid-record, one radio blacked out;
2. show the strict reader refusing the damaged files (the historical
   behavior), then reopen with ``policy="skip"`` — the tolerant decoder
   resynchronizes at the next valid record boundary and counts what it
   skipped;
3. kill a unification pool worker on its first attempt — the shard is
   retried in a fresh pool and the run completes;
4. print the :class:`~repro.core.faults.HealthReport` next to the
   injector's ground-truth :class:`~repro.sim.faults.FaultPlan`.

Run with::

    python examples/faulty_traces.py [--building]

``--building`` uses the building-scale scenario (~190 radios, a few
minutes); the default small scale finishes in seconds.
"""

import os
import sys
import tempfile
import time
from pathlib import Path

from repro.core import JigsawPipeline
from repro.core.faults import RetryPolicy
from repro.core.sync import sharded as sync_sharded
from repro.core.unify import hierarchy as unify_sharded
from repro.core.unify.hierarchy import MergeTree
from repro.jtrace import open_trace_streams, read_traces
from repro.sim import (
    FaultConfig,
    ScenarioConfig,
    run_scenario,
    write_faulty_traces,
)

#: Flag file the crashing worker uses to die exactly once (children of a
#: forked pool inherit the module state, so the retry succeeds).  The
#: kill is armed for both pool stages — bootstrap collection and the
#: shard merge — because either can be the one with multiple shards:
#: bootstrap shards by each radio's *home* channel, while the merge
#: unions channels that interact through scanning clients' records (at
#: building scale that collapses the merge to one serial shard).
_CRASH_FLAG: str = ""
_REAL_UNIFY_SHARD = unify_sharded._unify_shard
_REAL_COLLECT = sync_sharded._collect_shard_prefixes


def _die_once(stage):
    if _CRASH_FLAG and not os.path.exists(_CRASH_FLAG):
        open(_CRASH_FLAG, "w").close()
        print(f"  [worker] simulated OOM kill mid-{stage}: os._exit(1)")
        os._exit(1)


def _crash_once_unify_shard(unifier, traces, bootstrap):
    _die_once("merge")
    return _REAL_UNIFY_SHARD(unifier, traces, bootstrap)


def _crash_once_collect(prefixes):
    _die_once("bootstrap")
    return _REAL_COLLECT(prefixes)


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

    # Tolerant ingest + a worker kill during the first pooled stage.
    global _CRASH_FLAG
    _CRASH_FLAG = str(out / "worker_killed.flag")
    unify_sharded._unify_shard = _crash_once_unify_shard
    sync_sharded._collect_shard_prefixes = _crash_once_collect
    try:
        streams = open_trace_streams(out, policy="skip")
        unifier = MergeTree(
            max_workers=4,
            retry_policy=RetryPolicy(max_retries=2, backoff_base_s=0.05),
        )
        started = time.perf_counter()
        report = JigsawPipeline(unifier=unifier, bootstrap_workers=4).run(
            streams, clock_groups=clock_groups
        )
        elapsed = time.perf_counter() - started
    finally:
        unify_sharded._unify_shard = _REAL_UNIFY_SHARD
        sync_sharded._collect_shard_prefixes = _REAL_COLLECT
        _CRASH_FLAG = ""

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
    crashes = (health.bootstrap_shards.worker_crashes
               + health.unify_shards.worker_crashes)
    retries = (health.bootstrap_shards.pool_retries
               + health.unify_shards.pool_retries)
    print(f"  workers killed:                1   "
          f"pool crashes survived: {crashes} (retries: {retries})")
    assert crashes >= 1, "the killed worker must be visible in health"
    assert health.degraded, "a damaged run must report degraded health"
    print("\nreport.health.degraded =", health.degraded)


if __name__ == "__main__":
    main()
