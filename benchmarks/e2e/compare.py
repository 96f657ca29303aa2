#!/usr/bin/env python3
"""Compare two result sets written by ``run.py --out``.

    python3 benchmarks/e2e/compare.py A.json B.json

A is the base (the parent commit, or the first of two sets of the same
commit), B the candidate.  Per workload, one row per end-to-end metric:
both medians, the ratio B/A with its base, the bound from
``BENCHMARK.json`` and a verdict:

* ``WORSE``       B's median is worse than A's by more than the bound;
* ``UNRESOLVED``  not worse, but the run-to-run spread of either side
                  (inter-quartile range over median) is wider than the
                  bound, and B's runs do not all beat A's;
* ``PASS``        otherwise.

Exit status 1 on any ``WORSE``, on a failed or incorrect run, or on a
higher ``failed_share``.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parents[2]


def by_workload(path: Path) -> Dict[str, Dict[str, List[float]]]:
    """workload -> metric -> one value per run in the file."""
    values: Dict[str, Dict[str, List[float]]] = defaultdict(lambda: defaultdict(list))
    for run in json.loads(path.read_text())["runs"]:
        values[run["workload"]]["failed_runs"].append(
            float(run["failed"] > 0 or not run["correct"])
        )
        for name, value in run["metrics"].items():
            values[run["workload"]][name].append(value)
    return values


def spread(values: List[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def verdict(base: List[float], new: List[float], metric: Dict[str, Any]) -> str:
    higher = metric["better"] == "higher"
    a, b = statistics.median(base), statistics.median(new)
    worse_by = (a - b) / a if higher else (b - a) / a
    if worse_by > metric["bound"]:
        return "WORSE"
    all_better = min(new) > max(base) if higher else max(new) < min(base)
    if max(spread(base), spread(new)) > metric["bound"] and not all_better:
        return "UNRESOLVED"
    return "PASS"


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, new = by_workload(Path(argv[0])), by_workload(Path(argv[1]))
    bad = False
    for workload in (w["name"] for w in contract["workloads"]):
        if workload not in base or workload not in new:
            continue
        a_runs, b_runs = base[workload], new[workload]
        print(f"== {workload}  ({len(a_runs['setup_s'])} vs {len(b_runs['setup_s'])} runs)")
        for metric in contract["end_to_end"]:
            a, b = a_runs[metric["name"]], b_runs[metric["name"]]
            a_median, b_median = statistics.median(a), statistics.median(b)
            result = verdict(a, b, metric)
            bad |= result == "WORSE"
            print(
                f"  {metric['name']:<24} A {a_median:>12.5g}  B {b_median:>12.5g} "
                f"{metric['unit']:<10} B/A {b_median / a_median:6.3f} "
                f"(base {a_median:.5g})  spread A {spread(a):.3f} B {spread(b):.3f}  "
                f"bound {metric['bound']:.2f} {metric['better']:<6} {result}"
            )
        if sum(b_runs["failed_runs"]):
            bad = True
            print(f"  {int(sum(b_runs['failed_runs']))} run(s) of B failed their output check")
        a_share, b_share = a_runs.get("failed_share"), b_runs.get("failed_share")
        if a_share and b_share and statistics.median(b_share) > statistics.median(a_share):
            bad = True
            print(
                f"  failed_share rose: {statistics.median(a_share):.6g} -> "
                f"{statistics.median(b_share):.6g}"
            )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
