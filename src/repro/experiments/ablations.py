"""Ablations of the unifier's design choices (README.md, "Experiments").

Each ablation reruns unification on the *same* building traces with one
knob changed, and reports the Figure 4 dispersion percentiles plus the
mis-merge ("split") rate against the simulator oracle:

* median vs mean jframe timestamps;
* the dispersion-gated resync threshold (0 / 10 / 100 us);
* EWMA skew/drift compensation on vs off;
* search-window size (the paper: dangerously large windows lose sync);
* never resynchronizing (no resync, no skew compensation).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from ..core.sync.bootstrap import bootstrap_synchronization
from ..core.unify.jframe import JFrameKind
from ..core.unify.unifier import UnificationResult, Unifier
from .common import ExperimentRun, get_building_run


@dataclass
class AblationPoint:
    label: str
    p50_us: float
    p90_us: float
    p99_us: float
    split_rate: float      # multi-observed transmissions split across jframes
    jframes: int
    resyncs: int


def _score(result: UnificationResult, label: str) -> AblationPoint:
    dispersions = sorted(result.dispersions_us())
    by_txid: Dict[int, int] = defaultdict(int)
    for jframe in result.jframes:
        if jframe.kind is JFrameKind.VALID:
            txid = jframe.truth_txid()
            if txid:
                by_txid[txid] += 1
    split = sum(1 for count in by_txid.values() if count > 1)
    split_rate = split / max(1, len(by_txid))

    def pct(q: float) -> float:
        if not dispersions:
            return 0.0
        return float(np.percentile(dispersions, q))

    return AblationPoint(
        label=label,
        p50_us=pct(50),
        p90_us=pct(90),
        p99_us=pct(99),
        split_rate=split_rate,
        jframes=result.stats.jframes,
        resyncs=result.stats.resyncs,
    )


@dataclass
class AblationResult:
    points: List[AblationPoint]

    def format_table(self) -> str:
        lines = [
            f"{'configuration':<34} {'p50':>7} {'p90':>7} {'p99':>8} "
            f"{'split':>7} {'resyncs':>8}"
        ]
        for p in self.points:
            lines.append(
                f"{p.label:<34} {p.p50_us:>7.1f} {p.p90_us:>7.1f} "
                f"{p.p99_us:>8.1f} {p.split_rate:>7.3f} {p.resyncs:>8}"
            )
        return "\n".join(lines)

    def by_label(self, label: str) -> AblationPoint:
        for p in self.points:
            if p.label == label:
                return p
        raise KeyError(label)


def run_ablations(run: ExperimentRun = None) -> AblationResult:
    run = run or get_building_run()
    traces = run.artifacts.radio_traces
    bootstrap = bootstrap_synchronization(
        traces, clock_groups=run.artifacts.clock_groups()
    )

    configurations = [
        ("baseline (paper settings)", Unifier()),
        ("mean timestamp", Unifier(use_median_timestamp=False)),
        ("resync threshold 0us", Unifier(resync_threshold_us=0.0)),
        ("resync threshold 100us", Unifier(resync_threshold_us=100.0)),
        ("no skew compensation", Unifier(compensate_skew=False)),
        ("search window 1ms", Unifier(search_window_us=1_000)),
        ("search window 100ms", Unifier(search_window_us=100_000)),
        (
            "never resync",
            Unifier(resync_threshold_us=1e12, compensate_skew=False),
        ),
    ]
    points = [
        _score(unifier.unify(traces, bootstrap), label)
        for label, unifier in configurations
    ]
    return AblationResult(points=points)


def main() -> None:
    result = run_ablations()
    print("=== Unifier ablations ===")
    print(result.format_table())


if __name__ == "__main__":
    main()
