#!/usr/bin/env python3
"""The repo's benchmark: trace bytes in -> JigsawReport out, five workloads.

One run = one workload on one seed::

    python3 benchmarks/e2e/run.py --workload building_files --seed 7 \\
        --seconds 12 --trace 0

prepares the inputs from the seed, repeats the timed call for
``--seconds``, checks every output against a reference computation and
prints one JSON object as the last line of stdout.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` adds the traced staged run and
reports the per-layer metrics.  Omitting ``--workload`` runs all five;
several ``--seed`` values and ``--out FILE`` collect a result set for
``compare.py``.  Exit status is non-zero on any correctness mismatch.

Metric names, units and bounds live in ``BENCHMARK.json`` at the repo
root; see ``README.md`` beside this file for what each one means.
"""

from __future__ import annotations

import argparse
import gc
import json
import pickle
import shutil
import sys
import tempfile
import time
from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"

if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"run.py: no program to measure: {ROOT / 'src' / 'repro'} is missing")
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import harness  # noqa: E402
import staged  # noqa: E402
import workloads as wl  # noqa: E402


def stats_json(stats: Dict[str, Any]) -> Dict[str, Any]:
    return {
        layer: value if isinstance(value, int) else asdict(value)
        for layer, value in stats.items()
    }


# --- the cold child -------------------------------------------------------


def cold_child(inputs_path: Path) -> None:
    """Fresh process: load the prepared inputs, run once, report."""
    inputs = wl.Inputs.load_in_child(inputs_path)
    workload = wl.WORKLOADS[inputs.workload]
    started = time.perf_counter()
    report, _ = wl.run_once(workload, inputs)
    wall = time.perf_counter() - started
    print(
        json.dumps(
            {
                "wall_s": wall,
                "peak_rss_kb": harness.peak_rss_kb(),
                "stats": stats_json(wl.report_stats(report)),
            }
        )
    )


# --- one run --------------------------------------------------------------


def prepare_inputs(
    workload: wl.Workload,
    seed: int,
    scale: str,
    keep: bool,
    host: harness.HostClock,
) -> "tuple[wl.Prepared, Path]":
    """Prepare in a fresh work directory, or reuse a kept one.

    A kept directory is reused only under an identical fingerprint (git
    commit and scenario configuration); the set-up timings reported are
    then those of the preparation that built it.
    """
    OUT.mkdir(exist_ok=True)
    if not keep:
        workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT))
        return wl.prepare(workload, seed, scale, workdir, host), workdir
    workdir = OUT / f"inputs-{workload.name}-{scale}-{seed}"
    fingerprint = {
        "git_commit": harness.git_commit(ROOT),
        "config": repr(workload.config(seed, scale)),
    }
    kept = workdir / "prepared.pkl"
    if kept.exists():
        # Written by a previous invocation of this script.
        with open(kept, "rb") as fh:
            stored_fingerprint, prepared = pickle.load(fh)
        if stored_fingerprint == fingerprint:
            return prepared, workdir
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    prepared = wl.prepare(workload, seed, scale, workdir, host)
    with open(kept, "wb") as fh:
        pickle.dump((fingerprint, prepared), fh, protocol=pickle.HIGHEST_PROTOCOL)
    return prepared, workdir


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: str,
    keep_inputs: bool = False,
    sabotage_reference: bool = False,
) -> Dict[str, Any]:
    """Prepare, measure and check one workload; every metric by name."""
    workload = wl.WORKLOADS[name]
    host = harness.HostClock(scale)
    prepared, workdir = prepare_inputs(workload, seed, scale, keep_inputs, host)
    inputs, reference = prepared.inputs, prepared.reference
    if sabotage_reference:
        reference.stats["flows"] += 1
    problems: List[str] = []
    attempted = failed = 0

    def checked(found: List[str], what: str) -> None:
        nonlocal attempted, failed
        attempted += 1
        failed += bool(found)
        problems.extend(f"{what}: {p}" for p in found)

    try:
        # Nothing of the simulator survives prepare(); park what does
        # (inputs, reference) so the collector does not rescan it inside
        # the timed region.
        gc.collect()
        gc.freeze()

        digest = wl.DigestPass()
        report, service = wl.run_once(workload, inputs, probes=[digest])
        checked(
            wl.check_run(
                report,
                service,
                reference,
                inputs.records_written,
                digest=report.passes[digest.name],
            ),
            "warm-up",
        )
        timed = {
            "records_in": report.unification.stats.records_in,
            "trace_seconds": inputs.trace_us / 1e6,
            "failed_share": wl.failed_share(report, inputs.records_written),
            "checkpoints": 0 if service is None else service.checkpoints_written,
        }

        def one_rep() -> "tuple[float, float]":
            probe = wl.FirstJFramePass()
            started = time.perf_counter()
            rep_report, rep_service = wl.run_once(workload, inputs, probes=[probe])
            wall = time.perf_counter() - started
            checked(
                wl.check_run(
                    rep_report, rep_service, reference, inputs.records_written
                ),
                "timed repetition",
            )
            assert probe.at is not None
            return wall, probe.at - started

        reps = harness.measure(one_rep, seconds, host)

        child = harness.run_cold_child(HERE / "run.py", inputs.save_for_child())
        checked(
            []
            if child["stats"] == stats_json(reference.stats)
            else [f"got {child['stats']}"],
            "cold child",
        )

        metrics: Dict[str, float] = {
            "setup_s": prepared.setup_s,
            "e2e_records_per_s": timed["records_in"] / reps.reference_wall,
            "peak_rss_mb": child["peak_rss_kb"] / 1024,
        }
        if trace:
            tracer = harness.Tracer(name)
            seen = staged.traced_run(workload, inputs, reference, tracer)
            checked(seen["problems"], "traced run")
            metrics.update(
                per_layer_metrics(prepared, reps, host, child, seen, tracer, timed)
            )
            (OUT / f"spans-{name}.json").write_text(
                json.dumps({"workload": name, "seed": seed, "spans": tracer.spans})
            )
    finally:
        gc.unfreeze()
        if not keep_inputs:
            shutil.rmtree(workdir, ignore_errors=True)

    return {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "trace": int(trace),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
    }


def per_layer_metrics(
    prepared: wl.Prepared,
    reps: harness.Repetitions,
    host: harness.HostClock,
    child: Dict[str, Any],
    seen: Dict[str, Any],
    tracer: harness.Tracer,
    timed: Dict[str, float],
) -> Dict[str, float]:
    """Every per-layer metric; a layer that did no work reports zeros."""

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    span = tracer.seconds
    ingest, bootstrap = seen["ingest"], seen["bootstrap"]
    unify = seen["stats"]["unify"]
    staged_sum = sum(span(stage) for stage in staged.STAGES)
    metrics = {
        "jtrace.decode_s": span("jtrace.decode"),
        "jtrace.records_decoded": ingest.records_decoded,
        "jtrace.decode_records_per_s": ratio(
            ingest.records_decoded, span("jtrace.decode")
        ),
        "jtrace.bytes_compressed": seen["bytes_compressed"],
        "jtrace.records_skipped": ingest.records_skipped,
        "jtrace.resynced_bytes": ingest.bytes_resynced,
        "jtrace.truncated_tails": ingest.truncated_tails,
        "sync.bootstrap_s": span("sync.bootstrap"),
        "sync.radios_synchronized": len(bootstrap.offsets_us),
        "sync.radios_quarantined": len(bootstrap.quarantined),
        "sync.islands": len(bootstrap.islands),
        "sync.widen_rounds": bootstrap.widen_rounds,
        "sync.reference_frames_seen": bootstrap.reference_frames_seen,
        "unify.merge_s": span("unify.merge"),
        "unify.records_in": unify.records_in,
        "unify.jframes_out": unify.jframes,
        "unify.events_per_jframe": unify.events_per_jframe,
        "unify.records_per_s": ratio(unify.records_in, span("unify.merge")),
        "unify.records_skipped_unsynchronized": (
            unify.records_skipped_unsynchronized
        ),
        "unify.resyncs": unify.resyncs,
        "unify.shards": seen["shards"],
        "unify.shard_skew": seen["shard_skew"],
        "unify.pool_workers": seen["pool_workers"],
        "unify.serial_merge_s": span("unify.serial_merge"),
        "unify.pool_speedup": ratio(
            span("unify.serial_merge"), span("unify.merge")
        ),
        "link.attempts_s": span("link.attempts"),
        "link.attempts_out": seen["stats"]["attempts"].attempts,
        "link.exchanges_s": span("link.exchanges"),
        "link.exchanges_out": seen["stats"]["exchanges"].exchanges,
        "link.exchanges_needing_inference": (
            seen["stats"]["exchanges"].exchanges_needing_inference
        ),
        "transport.flows_s": span("transport.flows"),
        "transport.inference_s": span("transport.inference"),
        "transport.flows_out": seen["stats"]["flows"],
        "transport.handshakes_completed": seen["transport"].handshakes_completed,
        "passes.hooks_s": span("passes.hooks"),
        "passes.finish_s": span("passes.finish"),
        "passes.hook_calls": seen["hook_calls"],
        "pipeline.staged_sum_s": staged_sum,
        "pipeline.unattributed_share": (reps.best - staged_sum) / reps.best,
        "pipeline.trace_overhead_share": span("traced_run") / reps.best - 1.0,
        "pipeline.span_coverage": tracer.coverage("traced_run"),
        "pipeline.cold_run_s": child["wall_s"],
        "pipeline.wall_s_best": reps.best,
        "pipeline.wall_s_median": reps.median,
        "pipeline.wall_s_iqr": reps.iqr,
        "pipeline.reps": len(reps.walls),
        "realtime_factor": timed["trace_seconds"] / reps.best,
        "time_to_first_jframe_s": reps.first_jframe_best,
        "failed_share": timed["failed_share"],
        "host.speed": host.median_speed,
        "host.calibration_s_best": host.calibration_best,
        "host.calibration_spread": host.calibration_spread,
        "host.reps_discarded": reps.discarded,
        **prepared.setup,
    }
    # The service layer: zeros on the batch workloads.
    serve_nockpt = span("service.serve_nockpt")
    checkpoints = timed["checkpoints"]
    lags = seen.get("lags_us", [])
    metrics.update(
        {
            "service.serve_s": reps.best if serve_nockpt else 0.0,
            "service.serve_nockpt_s": serve_nockpt,
            "service.checkpoints_written": checkpoints,
            "service.checkpoint_bytes_max": seen.get("checkpoint_bytes_max", 0),
            "service.restore_s": span("service.restore"),
            "service.windows_published": seen.get("windows_published", 0),
            "service.batch_ratio": ratio(span("service.batch_run"), serve_nockpt),
            "checkpoint_stall_s": ratio(reps.best - serve_nockpt, checkpoints),
            "window_lag_us_p50": staged.percentile(lags, 0.5),
            "window_lag_us_p90": staged.percentile(lags, 0.9),
        }
    )
    return {name: float(value) for name, value in metrics.items()}


# --- reporting ------------------------------------------------------------


def contract_line(record: Dict[str, Any], contract: Dict[str, Any]) -> str:
    """The last line of stdout: exactly the four keys the driver reads."""
    wanted = contract["per_layer" if record["trace"] else "end_to_end"]
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {
                m["name"]: {"value": record["metrics"][m["name"]], "unit": m["unit"]}
                for m in wanted
            },
        }
    )


def print_record(record: Dict[str, Any], contract: Dict[str, Any]) -> None:
    units = {
        m["name"]: m["unit"] for m in contract["end_to_end"] + contract["per_layer"]
    }
    unnamed = sorted(set(record["metrics"]) - set(units))
    if unnamed:
        raise SystemExit(f"run.py: metrics missing from BENCHMARK.json: {unnamed}")
    print(
        f"== {record['workload']} seed={record['seed']} scale={record['scale']} "
        f"checks={record['attempted']} failed={record['failed']}"
    )
    for name, value in record["metrics"].items():
        print(f"  {name:<40} {value:>16.6g} {units[name]}")
    for problem in record["problems"]:
        print(f"  MISMATCH {problem}")
    print(contract_line(record, contract), flush=True)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS), action="append")
    parser.add_argument("--seed", type=int, nargs="+", default=[7])
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1)
    parser.add_argument("--scale", choices=("bench", "tiny"), default="bench")
    parser.add_argument("--out", type=Path, help="write every run's record here")
    parser.add_argument(
        "--keep-inputs",
        action="store_true",
        help="keep prepared inputs under out/ and reuse them next time",
    )
    parser.add_argument(
        "--self-test-wrong-reference",
        action="store_true",
        help="corrupt the reference; the run must then exit non-zero",
    )
    parser.add_argument("--cold-child", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.cold_child is not None:
        cold_child(args.cold_child)
        return 0

    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else contract["run_seconds"]
    names = args.workload or [w["name"] for w in contract["workloads"]]
    records = []
    for seed in args.seed:
        for name in names:
            record = run_workload(
                name,
                seed,
                seconds,
                bool(args.trace),
                args.scale,
                keep_inputs=args.keep_inputs,
                sabotage_reference=args.self_test_wrong_reference,
            )
            print_record(record, contract)
            records.append(record)
    if args.out is not None:
        args.out.write_text(
            json.dumps(
                {"host": harness.host_fingerprint(ROOT), "runs": records}, indent=1
            )
        )
    return 0 if all(r["correct"] for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
