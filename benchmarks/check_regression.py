"""CI perf-regression gate over the ``BENCH_merge.json`` trajectory.

Compares throughput metrics measured by the bench smoke against the
committed baseline with a tolerance band: a metric below
``--fail-under`` (default 0.8x of baseline) fails the build, one below
``--warn-under`` (default 0.95x) only warns.  Wide tolerance is
deliberate — shared CI runners jitter by tens of percent, and the gate
exists to catch the silent 2x decode regression, not 3% noise.

Guarded metrics are *throughputs and speedups* (higher is better), so
the check is scale-free: a runner that is uniformly slow moves both
numerator and denominator of the recorded speedups and neither trips
the gate, while a real regression in one stage shifts the ratio.

Usage (what ``make bench-smoke`` and CI run)::

    python benchmarks/check_regression.py \
        --baseline BENCH_baseline.json --current BENCH_merge.json

Metrics missing from the baseline (e.g. a section added by the current
PR) are reported as a WARN — visible in the log, but not fatal, so
perf-section authors are not forced to hand-edit baselines to get CI
green.  Pass ``--require-sections`` (what the scheduled full run uses)
to turn an absent baseline section into a failure: on that path every
guarded metric is expected to have history, and a silently-skipped
section is exactly how a gate rots.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Iterator, Optional, Tuple

#: (dotted path into BENCH_merge.json, human label).  All are
#: higher-is-better ratios or rates.
GUARDED_METRICS: Tuple[Tuple[str, str], ...] = (
    ("full_fleet.records_per_second", "merge throughput (full fleet)"),
    ("decode.batched_records_per_second", "batched decode throughput"),
    ("decode.decode_speedup", "batched/scalar decode speedup"),
    ("decode.end_to_end_speedup", "batched/scalar end-to-end speedup"),
    ("bootstrap.prepass_speedup", "single-read prepass speedup"),
    ("pool_scaling.best_records_per_second", "best pool-sweep throughput"),
)


def _lookup(payload: dict, dotted: str) -> Optional[float]:
    node = payload
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return float(node) if isinstance(node, (int, float)) else None


def iter_checks(
    baseline: dict, current: dict
) -> Iterator[Tuple[str, str, Optional[float], Optional[float]]]:
    for dotted, label in GUARDED_METRICS:
        yield dotted, label, _lookup(baseline, dotted), _lookup(current, dotted)


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        type=Path,
        required=True,
        help="committed BENCH_merge.json to compare against",
    )
    parser.add_argument(
        "--current",
        type=Path,
        required=True,
        help="BENCH_merge.json produced by this run's bench smoke",
    )
    parser.add_argument(
        "--fail-under",
        type=float,
        default=0.8,
        help="fail when current/baseline drops below this (default 0.8)",
    )
    parser.add_argument(
        "--warn-under",
        type=float,
        default=0.95,
        help="warn when current/baseline drops below this (default 0.95)",
    )
    parser.add_argument(
        "--require-sections",
        action="store_true",
        help=(
            "fail when a guarded metric has no baseline instead of "
            "warning (strict mode for runs that must have full history)"
        ),
    )
    args = parser.parse_args(argv)

    if not args.baseline.exists():
        print(f"regression gate: no baseline at {args.baseline}; skipping")
        return 0
    if not args.current.exists():
        print(f"regression gate: no current results at {args.current}")
        return 1
    baseline = json.loads(args.baseline.read_text())
    current = json.loads(args.current.read_text())

    failures = 0
    for dotted, label, base, cur in iter_checks(baseline, current):
        if base is None or base == 0:
            if args.require_sections:
                print(
                    f"  FAIL  {label} ({dotted}): no baseline "
                    "(--require-sections)"
                )
                failures += 1
            else:
                print(
                    f"  WARN  {label} ({dotted}): no baseline — "
                    "not gated; refresh the committed baseline"
                )
            continue
        if cur is None:
            print(f"  FAIL  {label} ({dotted}): missing from current run")
            failures += 1
            continue
        ratio = cur / base
        detail = f"{cur:,.2f} vs baseline {base:,.2f} ({ratio:.2f}x)"
        if ratio < args.fail_under:
            print(f"  FAIL  {label}: {detail} < {args.fail_under:.2f}x")
            failures += 1
        elif ratio < args.warn_under:
            print(f"  WARN  {label}: {detail} < {args.warn_under:.2f}x")
        else:
            print(f"  ok    {label}: {detail}")

    if failures:
        print(
            f"regression gate: {failures} metric(s) regressed more than "
            f"{(1 - args.fail_under) * 100:.0f}% against {args.baseline}"
        )
        return 1
    print("regression gate: within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
