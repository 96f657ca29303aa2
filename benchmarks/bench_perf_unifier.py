"""Bench P1 — the Section 4 efficiency requirement.

"Trace merging should execute faster than real-time and scale well as a
function of the number of radios" — checked against both our compressed
trace (which is ~4x denser in events/second than the paper's day) and the
paper's own average event rate (2.7 B events / 24 h ~ 31 k events/s).

The merge runs through the sharded streaming engine
(:class:`repro.core.unify.MergeTree`); a radios-scaling sweep over
fleet subsets is persisted to ``BENCH_merge.json`` at the repo root so
the perf trajectory is tracked across PRs.
"""

import json
import os
from pathlib import Path

from repro.experiments.perf import (
    DEFAULT_CAMPUS_BUILDINGS,
    run_bootstrap_performance,
    run_campus_radio_scaling,
    run_decode_performance,
    run_memory_profile,
    run_merge_performance,
    run_pool_scaling,
    run_radio_scaling,
)

#: The paper's day-long trace: 2.7 B events over 86,400 seconds.
PAPER_EVENTS_PER_SECOND = 2_700_000_000 / 86_400

#: Where the cross-PR perf trajectory is recorded.
RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_merge.json"


def _update_results(**sections) -> None:
    """Merge sections into BENCH_merge.json (tests may run standalone)."""
    payload = {}
    if RESULTS_PATH.exists():
        payload = json.loads(RESULTS_PATH.read_text())
    payload.update(sections)
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")


def test_merge_faster_than_paper_realtime(benchmark, building_run, capsys):
    perf = benchmark.pedantic(
        run_merge_performance, args=(building_run,), rounds=1, iterations=1
    )
    paper_factor = perf.records_per_second / PAPER_EVENTS_PER_SECOND
    with capsys.disabled():
        print("\n=== Merge performance ===")
        print(perf.format_table())
        print(
            f"vs paper's event rate ({PAPER_EVENTS_PER_SECOND:,.0f}/s): "
            f"{paper_factor:.2f}x real time"
        )
    # Single pass, and faster than real time at the paper's event rate.
    assert paper_factor > 1.0


def test_batched_decode_beats_scalar(building_run, capsys):
    """The batch-vectorized ingest tentpole: chunked structured-array
    decode plus decode-ahead must beat the scalar per-record pipeline
    end to end on the building trace — with record- and jframe-identical
    output.

    Both legs run back to back in the same process on the same files
    (twice each, alternating, best-of recorded), so the persisted
    speedups are same-environment ratios (shared-runner absolute times
    jitter; ratios are what the regression gate guards).  The scalar leg
    (``vectorized=False, decode_ahead=0``) is the pre-batching pipeline,
    making ``end_to_end_speedup`` the measured gain over that baseline.

    Defined before the sweep/memory benchmarks on purpose: those runs
    leave the shared process holding a multi-GB materialized heap, and
    timing the allocation-heavy batched pipeline on top of it skews the
    end-to-end legs.
    """
    perf = run_decode_performance(building_run)
    with capsys.disabled():
        print("\n=== Decode: scalar vs batch-vectorized ingest ===")
        print(perf.format_table())
    _update_results(decode=perf.as_dict())
    assert perf.output_identical
    # The decode drain itself must be decisively vectorized.
    assert perf.decode_speedup > 2.0
    # The win must survive the full pipeline too.  The floor here is
    # Amdahl-bounded, not 1:1 with the drain speedup: scalar decode was
    # ~55% of the scalar pipeline, so even a free ingest caps the
    # end-to-end ratio near 2.2x on one core, and the irreducible cost
    # of materializing 1.5M Python record objects lands the practical
    # single-core ratio around 1.7x (decode-ahead recovers more on
    # multi-core hosts by overlapping the remaining ingest with the
    # merge).  The regression gate guards the measured value; this
    # assert is the hard floor below which batching stopped working.
    assert perf.end_to_end_speedup > 1.4


def test_merge_scales_with_radios(building_run, capsys):
    """The paper's scaling requirement: sweep fleet subsets, persist them."""
    points = run_radio_scaling(building_run)
    full = run_merge_performance(building_run)
    with capsys.disabled():
        print("\n=== Radio scaling sweep ===")
        for point in points:
            print(
                f"  {point.n_radios:4d} radios / {point.n_shards} shards: "
                f"{point.records_per_second:>10,.0f} rec/s  "
                f"({point.realtime_factor:.2f}x real time)"
            )
    memory = run_memory_profile(building_run)
    with capsys.disabled():
        print("\n=== Peak memory: materialized vs streaming passes ===")
        print(memory.format_table())
    _update_results(
        benchmark="merge_performance",
        paper_events_per_second=PAPER_EVENTS_PER_SECOND,
        full_fleet=full.as_dict(),
        radio_scaling=[p.as_dict() for p in points],
        memory=memory.as_dict(),
    )
    # Every sweep point must stay faster than the paper's event rate.
    for point in points:
        assert point.records_per_second > PAPER_EVENTS_PER_SECOND
    # The streaming-pass pipeline must peak measurably below the
    # materialized run on the same trace (the materialize=False win).
    assert memory.streaming_peak_bytes < memory.materialized_peak_bytes
    # Severing observation -> exchange back-references after transport
    # inference must shrink what a materialize=False run retains.
    assert memory.trimmed_retained_bytes < memory.untrimmed_retained_bytes


def test_bootstrap_prepass_single_read_beats_two_read(building_run, capsys):
    """The tentpole: channel-sharded collection fed by single-read ingest
    must reach bootstrap offsets far faster than the serial two-read
    prepass on the building trace — with bit-identical offsets.

    End-to-end (bootstrap + merge) both paths decode and merge the same
    records, so on a single core the totals sit at parity and the win is
    time-to-first-jframe; the totals are tracked and guarded against
    regression (the fused path must never *cost* the pipeline)."""
    perf = run_bootstrap_performance(building_run)
    with capsys.disabled():
        print("\n=== Bootstrap prepass: two-read vs single-read sharded ===")
        print(perf.format_table())
    _update_results(bootstrap=perf.as_dict())
    assert perf.offsets_identical
    # Time-to-offsets: the prefix-only decode must decisively beat
    # decode-everything (the margin is ~the trace/window length ratio).
    assert perf.single_read_prepass_seconds < perf.two_read_prepass_seconds / 2
    # Fusing ingest with collection must not cost the pipeline overall.
    # The two totals are back-to-back ~18 s wall-clock runs sitting at
    # parity (the fusion removes only the duplicate window scan; decode
    # and merge dominate and are shared), so this is a gross-regression
    # guard with headroom for shared-runner jitter, not a tight bound.
    assert perf.single_read_total_seconds < perf.two_read_total_seconds * 1.25


def test_campus_hierarchical_merge_and_pool_scaling(
    campus_run, bench_scale, capsys
):
    """Campus-scale sharding: the 500+ radio story.

    Two sections land in ``BENCH_merge.json``:

    * ``pool_scaling`` — a worker-count sweep over one 512-radio campus
      merge, with the engine each request *resolved to* recorded;
    * ``radio_scaling`` — extended past one building with campus points
      (512 radios at the default scale; ``--scale full`` adds the 1024-
      and 1536-radio points by slicing one 12-building simulation).

    The >= 2x pool-over-serial acceptance bound is asserted only where a
    pool can exist: the multi-core ``pool-bench`` CI lane sets
    ``REPRO_REQUIRE_POOL_SPEEDUP=1``.  Defined last on purpose — the
    campus heap joins a process already holding the building run, and
    the earlier timing-sensitive legs should not run on top of both.
    """
    pool = run_pool_scaling(campus_run)
    buildings = DEFAULT_CAMPUS_BUILDINGS if bench_scale == "full" else (4,)
    campus_points = run_campus_radio_scaling(buildings)
    with capsys.disabled():
        print("\n=== Pool scaling (worker-count sweep) ===")
        print(pool.format_table())
        print("\n=== Campus radio scaling ===")
        for point in campus_points:
            print(
                f"  {point.n_radios:4d} radios / {point.n_shards} leaves: "
                f"{point.records_per_second:>10,.0f} rec/s  "
                f"({point.realtime_factor:.2f}x real time)  [{point.engine}]"
            )
    # Extend the scaling curve rather than replace it: keep the
    # single-building sweep points, splice the campus tail in.
    payload = {}
    if RESULTS_PATH.exists():
        payload = json.loads(RESULTS_PATH.read_text())
    building_points = [
        p
        for p in payload.get("radio_scaling", [])
        if p.get("n_radios", 0) < 500
    ]
    _update_results(
        radio_scaling=building_points
        + [p.as_dict() for p in campus_points],
        pool_scaling=pool.as_dict(),
    )
    # Every pool width merged the same campus: identical record and
    # jframe counts (bit-level identity is the parity suite's job).
    serial = pool.points[0]
    assert serial.pool_workers == 0
    assert all(p.records == serial.records for p in pool.points)
    assert all(p.jframes == serial.jframes for p in pool.points)
    # The acceptance floor: faster than real time at 500+ radios, and
    # faster than the paper's day-long event rate at every campus size.
    assert campus_points[0].n_radios >= 500
    assert pool.best.realtime_factor > 1.0
    for point in campus_points:
        assert point.records_per_second > PAPER_EVENTS_PER_SECOND
    if os.environ.get("REPRO_REQUIRE_POOL_SPEEDUP"):
        pooled = [p for p in pool.points if p.pool_workers > 0]
        assert pooled, "pool lane resolved every request to serial"
        best = max(p.records_per_second for p in pooled)
        assert best >= 2.0 * serial.records_per_second
