"""The five benchmark workloads: inputs, the timed call, the reference.

Everything here calls the library through its public functions only —
the benchmark measures each layer from outside.  A workload is three
things:

* ``prepare`` — simulate from the seed, stage the inputs the timed call
  reads (a trace directory, or a pickle the cold child loads), compute
  the reference output by an independent path, then hand back only what
  the timed region needs (no simulator artifacts);
* ``run_once`` — the timed call itself, one complete input -> report run;
* ``check_run`` — the run's output against the reference.

Constructors use library defaults throughout (no tuning arguments), so a
later change to a default is measured rather than masked.
"""

from __future__ import annotations

import hashlib
import math
import pickle
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.analysis import (
    ActivityPass,
    DispersionPass,
    InterferencePass,
    StationTracker,
    SummaryPass,
)
from repro.core.passes import PipelinePass
from repro.core.pipeline import JigsawPipeline, JigsawReport
from repro.core.unify.hierarchy import MergeTree
from repro.core.unify.unifier import Unifier
from repro.jtrace.io import (
    DecodeHealth,
    open_trace_streams,
    read_traces,
    write_traces,
)
from repro.service import (
    JigsawDaemon,
    ServiceReport,
    WindowedInterferencePass,
    WindowedLossPass,
    WindowedSummaryPass,
)
from repro.jtrace.io import RadioTrace
from repro.sim import build_scenario, finalize_scenario
from repro.sim.campus import building_config, building_stride
from repro.sim.faults import FaultPlan, write_faulty_traces
from repro.sim.registry import scenario_config
from repro.sim.scenario import FaultConfig, ScenarioConfig

from harness import HostClock, StageTimer

#: The simulator is advanced in slices this long until a building has
#: captured its record budget: the overshoot is what 5 ms of air holds.
SIMULATION_SLICE_US = 5_000
#: Windows the service workload must seal: enough that the 90th
#: percentile of the window lag has ten samples beyond it.
SERVICE_WINDOWS = 120
#: Checkpoints per service run, independent of how many records the seed
#: produced — so a heavier seed does not also pay for more checkpoints.
SERVICE_CHECKPOINTS = 2

#: Capture damage of ``building_faulty_files``: header corruption for
#: the resync scanner, cut files for the truncated-tail path, blackout
#: holes and one stepped clock for the merge.
FAULTS = FaultConfig(
    corrupt_rate=0.002,
    truncate_radios=2,
    blackout_radios=2,
    clock_jump_radios=1,
)


# --- passes ---------------------------------------------------------------


def representative_passes(duration_us: int) -> List[PipelinePass]:
    """Figures 4/8/9 and Table 1 inline — the set ``perf.py`` profiles.

    Re-declared here so ``experiments/perf.py`` can shrink without
    changing what the benchmark runs.
    """
    tracker = StationTracker()
    return [
        ActivityPass(
            duration_us, bin_us=max(1, duration_us // 24), tracker=tracker
        ),
        DispersionPass(),
        InterferencePass(min_packets=30, tracker=tracker),
        SummaryPass(duration_us, tracker=tracker),
    ]


def windowed_passes(window_us: int) -> List[PipelinePass]:
    return [
        WindowedSummaryPass(window_us),
        WindowedInterferencePass(window_us),
        WindowedLossPass(window_us),
    ]


class FirstJFramePass(PipelinePass):
    """No-op probe: when did the first jframe reach the passes?"""

    name = "bench_first_jframe"

    def __init__(self) -> None:
        self.at: Optional[float] = None

    def on_jframe(self, jframe: Any) -> None:
        if self.at is None:
            self.at = time.perf_counter()


class DigestPass(PipelinePass):
    """BLAKE2 chain over every layer's output, in hook delivery order.

    The state is plain bytes (one short hash per event, chained), not a
    live hashlib object, so the daemon can pickle the pass into its
    checkpoints like any other.
    """

    name = "bench_digest"

    def __init__(self) -> None:
        self.state = b""

    def _fold(self, text: str) -> None:
        self.state = hashlib.blake2b(
            self.state + text.encode(), digest_size=16
        ).digest()

    def on_jframe(self, jframe: Any) -> None:
        self._fold(f"j{jframe.timestamp_us},{len(jframe.instances)}")

    def on_attempt(self, attempt: Any) -> None:
        self._fold(f"a{attempt.start_us},{attempt.seq},{attempt.retry}")

    def on_exchange(self, exchange: Any) -> None:
        self._fold(
            f"x{exchange.start_us},{exchange.n_attempts},{exchange.delivered}"
        )

    def on_flow(self, flow: Any) -> None:
        self._fold(
            f"f{flow.key},{flow.n_segments},{flow.handshake_complete},"
            f"{len(flow.loss_events)}"
        )

    def finish(self, context: Any) -> str:
        return self.state.hex()


# --- the service feed -----------------------------------------------------


class ReplayFeed:
    """The daemon's feed protocol over pre-simulated in-memory traces.

    ``live_feed`` advances the simulator inside ``next_record``; this
    adapter replays finished traces instead, so the timed ``serve()``
    contains the daemon and nothing else.
    """

    def __init__(self, traces: Sequence[Any], clock_groups: Sequence) -> None:
        self.traces = list(traces)
        self._clock_groups = clock_groups
        self._records = {t.radio_id: t.records for t in self.traces}
        self._cursor = {t.radio_id: 0 for t in self.traces}

    def clock_groups(self) -> Sequence:
        return self._clock_groups

    def consumed(self) -> Dict[int, int]:
        return dict(self._cursor)

    def seek(self, consumed: Dict[int, int]) -> None:
        self._cursor.update(consumed)

    def next_record(self, radio_id: int) -> Any:
        index = self._cursor[radio_id]
        records = self._records[radio_id]
        if index >= len(records):
            return None
        self._cursor[radio_id] = index + 1
        return records[index]


class LagObservingFeed(ReplayFeed):
    """A :class:`ReplayFeed` that also measures how late windows seal.

    Each time the daemon's public ``watermark_us`` passes a window end,
    records how far past that end (on the universal timeline) the newest
    record handed to the daemon already was.  A count in trace
    microseconds, not a timing: it repeats exactly for the same input.
    Universal time is local time plus the bootstrap offset, taken from
    the reference run (the daemon computes identical offsets).  Also
    notes the size of each checkpoint file as the daemon's public
    ``checkpoints_written`` count advances.
    """

    def __init__(
        self,
        traces: Sequence[Any],
        clock_groups: Sequence,
        offsets_us: Dict[int, float],
        window_us: int,
        checkpoint_path: Path,
    ) -> None:
        super().__init__(traces, clock_groups)
        self.daemon: Optional[JigsawDaemon] = None
        self.lags_us: List[float] = []
        self.checkpoint_bytes: List[int] = []
        self._offsets = offsets_us
        self._window_us = window_us
        self._checkpoint_path = checkpoint_path
        self._newest_us = float("-inf")
        self._next_end_us: Optional[int] = None

    def next_record(self, radio_id: int) -> Any:
        record = super().next_record(radio_id)
        offset = self._offsets.get(radio_id)
        if record is not None and offset is not None:
            self._newest_us = max(self._newest_us, record.timestamp_us + offset)
        assert self.daemon is not None
        if self.daemon.checkpoints_written > len(self.checkpoint_bytes):
            self.checkpoint_bytes.append(self._checkpoint_path.stat().st_size)
        watermark = self.daemon.watermark_us
        if math.isinf(watermark):
            return record
        if self._next_end_us is None:
            self._next_end_us = (
                int(watermark) // self._window_us + 1
            ) * self._window_us
        while watermark >= self._next_end_us:
            self.lags_us.append(self._newest_us - self._next_end_us)
            self._next_end_us += self._window_us
        return record


# --- workload table -------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    family: str
    #: Registry scale and overrides at ``--scale bench``; ``--scale tiny``
    #: uses the registry's ``tiny`` scale with ``tiny_overrides`` only.
    bench_scale: str
    bench_overrides: Dict[str, Any]
    #: Records each building captures before its simulation is stopped
    #: (``--scale bench`` only; ``duration_us`` is then just the cap).
    building_budget: int
    tiny_overrides: Dict[str, Any] = field(default_factory=dict)
    #: True: the timed call reads a trace directory; False: it is handed
    #: in-memory ``RadioTrace`` lists.
    files: bool = False
    faulty: bool = False
    service: bool = False
    #: Coordinator of the timed call / of the reference (None = the
    #: pipeline's default plain ``Unifier``).
    make_unifier: Callable[[], Optional[Any]] = lambda: None
    make_reference_unifier: Callable[[], Optional[Any]] = lambda: None

    def config(self, seed: int, scale: str) -> ScenarioConfig:
        if scale == "tiny":
            return scenario_config(
                self.family, "tiny", seed=seed, **self.tiny_overrides
            )
        return scenario_config(
            self.family, self.bench_scale, seed=seed, **self.bench_overrides
        )


# Bench-scale sizes are what one run's time budget allows (the simulator
# produces ~20k records/s and every run simulates from its seed): radio
# counts are the registry's, only the trace is shorter.  Each building is
# simulated until it has captured ``building_budget`` records, so every
# seed gives the same amount of work — at a fixed duration the record
# count swings +-20 % with the seed's few heavy flows, and every
# size-dependent metric with it.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="building_files",
            why=(
                "The headline: 156-radio building read from trace files, "
                "every layer on; jtrace decode and unify dominate, so "
                "ingest and merge changes both show."
            ),
            family="building",
            bench_scale="full",
            bench_overrides={"duration_us": 1_000_000},
            building_budget=70_000,
            files=True,
        ),
        Workload(
            name="building_faulty_files",
            why=(
                "Same building with corrupted, truncated, blacked-out and "
                "clock-stepped captures read with policy=skip: the resync "
                "scanner and scalar fallback a decode fast path can hurt."
            ),
            family="building",
            bench_scale="full",
            bench_overrides={"duration_us": 1_000_000},
            building_budget=70_000,
            files=True,
            faulty=True,
        ),
        Workload(
            name="campus_memory",
            why=(
                "512 radios in 4 buildings, in memory through a serial "
                "MergeTree: bypasses jtrace, so sync, unify and the tree "
                "reduce are the work; the single-threaded baseline."
            ),
            family="campus",
            bench_scale="full",
            bench_overrides={"duration_us": 2_000_000},
            building_budget=30_000,
            make_unifier=lambda: MergeTree(max_workers=1),
            make_reference_unifier=lambda: Unifier(),
        ),
        Workload(
            name="campus_auto_workers",
            why=(
                "256 radios through MergeTree() with library auto-sizing: "
                "the pool path (shard pickling, result transport) that the "
                "serial run skips; stays valid if the pool is deleted."
            ),
            family="campus",
            bench_scale="full",
            bench_overrides={"duration_us": 2_000_000, "n_buildings": 2},
            building_budget=30_000,
            tiny_overrides={"n_buildings": 2},
            make_unifier=lambda: MergeTree(),
            make_reference_unifier=lambda: MergeTree(max_workers=1),
        ),
        Workload(
            name="flash_crowd_service",
            why=(
                "JigsawDaemon over a replayed flash crowd with windowed "
                "passes and checkpoint writes: the step-driven merge twin "
                "on the densest link/transport/passes trace."
            ),
            family="flash_crowd",
            bench_scale="small",
            bench_overrides={"duration_us": 1_500_000},
            building_budget=45_000,
            service=True,
        ),
    )
}


# --- prepared inputs and reference ----------------------------------------


@dataclass
class Inputs:
    """All the timed region (and the cold child) may see of a workload."""

    workload: str
    workdir: Path
    #: The scenario's configured duration (what duration-shaped passes
    #: are built for) and how much of it was actually simulated.
    duration_us: int
    trace_us: int
    clock_groups: List[List[int]]
    #: Records the radios believe they wrote (blackout holes excluded).
    records_written: int
    trace_dir: Optional[Path] = None
    policy: str = "strict"
    pickle_path: Optional[Path] = None
    traces: Optional[List[Any]] = None
    window_us: int = 0
    checkpoint_every: int = 0

    def save_for_child(self) -> Path:
        """Pickle everything but the traces (those are already on disk)."""
        path = self.workdir / "inputs.pkl"
        with open(path, "wb") as fh:
            pickle.dump(replace(self, traces=None), fh)
        return path

    @classmethod
    def load_in_child(cls, path: Path) -> "Inputs":
        # Both pickles were written by this benchmark's own prepare().
        with open(path, "rb") as fh:
            inputs: Inputs = pickle.load(fh)
        if inputs.pickle_path is not None:
            with open(inputs.pickle_path, "rb") as fh:
                inputs.traces = pickle.load(fh)
        return inputs


@dataclass
class Reference:
    """The output every run of the workload must reproduce."""

    digest: str
    stats: Dict[str, Any]
    #: Service: the published-window ledger of the batch run.
    windows: Optional[Dict[Tuple[str, int], Any]] = None
    #: Faulty files: the scalar decoder's damage ledger.
    ingest: Optional[DecodeHealth] = None
    fault_plan: Optional[FaultPlan] = None
    #: Bootstrap offsets (the lag probe needs universal time).
    offsets_us: Dict[int, float] = field(default_factory=dict)


def report_stats(report: JigsawReport) -> Dict[str, Any]:
    return {
        "unify": report.unification.stats,
        "attempts": report.attempt_stats,
        "exchanges": report.exchange_stats,
        "flows": len(report.flows),
    }


def window_ledger(windows: Sequence[Any]) -> Dict[Tuple[str, int], Any]:
    return {w.key: (w.start_us, w.end_us, w.payload) for w in windows}


#: The stages of ``prepare`` (a workload skips those it has no use for).
SETUP_STAGES = (
    "sim.simulate_s",
    "jtrace.write_s",
    "setup.child_input_s",
    "setup.reference_s",
)


@dataclass
class Prepared:
    inputs: Inputs
    reference: Reference
    #: Wall seconds of each of ``SETUP_STAGES``, as they passed.
    setup: Dict[str, float]
    #: Their sum in reference-host seconds (see ``harness.HostClock``).
    setup_s: float


def simulate(
    config: ScenarioConfig, building_budget: Optional[int]
) -> Tuple[List[RadioTrace], List[List[int]], int]:
    """Traces, clock groups and trace length (us) of the scenario.

    Composes buildings exactly as ``repro.sim.campus.run_campus`` does
    (per-building sub-seed, disjoint radio-id ranges, ``building_id``
    stamps), but stops each building's kernel once its radios hold
    ``building_budget`` records (``None``: at ``config.duration_us``).
    """
    traces: List[RadioTrace] = []
    clock_groups: List[List[int]] = []
    trace_us = 0
    n = config.n_buildings
    for b in range(n):
        sub = config if n == 1 else building_config(config, b)
        world = build_scenario(sub)
        radios = [radio for pod in world.pods for radio in pod.radios]
        now = 0
        while now < sub.duration_us and (
            building_budget is None
            or sum(len(r.trace) for r in radios) < building_budget
        ):
            now = min(now + SIMULATION_SLICE_US, sub.duration_us)
            world.kernel.run_until(now)
        artifacts = finalize_scenario(world)
        trace_us = max(trace_us, now)
        offset = b * building_stride(config)
        for trace in artifacts.radio_traces:
            traces.append(
                trace
                if n == 1
                else RadioTrace(
                    trace.radio_id + offset,
                    trace.channel,
                    trace.records,
                    building_id=b,
                )
            )
        clock_groups.extend(
            [rid + offset for rid in group] for group in artifacts.clock_groups()
        )
    return traces, clock_groups, trace_us


def prepare(
    workload: Workload, seed: int, scale: str, workdir: Path, host: HostClock
) -> Prepared:
    """Simulate, stage inputs, compute the reference; keep no simulator state."""
    config = workload.config(seed, scale)
    timer = StageTimer(host)
    traces, clock_groups, trace_us = simulate(
        config, workload.building_budget if scale == "bench" else None
    )
    timer.lap("sim.simulate_s")

    inputs = Inputs(
        workload=workload.name,
        workdir=workdir,
        duration_us=config.duration_us,
        trace_us=trace_us,
        clock_groups=clock_groups,
        records_written=sum(len(t) for t in traces),
    )
    reference_traces: Sequence[Any] = traces
    ingest: Optional[DecodeHealth] = None
    fault_plan: Optional[FaultPlan] = None
    if workload.files:
        inputs.trace_dir = workdir / "traces"
        if workload.faulty:
            inputs.policy = "skip"
            fault_plan = write_faulty_traces(
                traces, inputs.trace_dir, config.with_overrides(faults=FAULTS)
            )
            inputs.records_written -= sum(fault_plan.blackout_dropped.values())
        else:
            write_traces(traces, inputs.trace_dir)
        timer.lap("jtrace.write_s")
        if workload.faulty:
            # Reference input: the same damaged files through the scalar
            # reference decoder, materialized.
            ingest = DecodeHealth()
            reference_traces = read_traces(
                inputs.trace_dir, policy="skip", health=ingest, vectorized=False
            )
    else:
        inputs.pickle_path = workdir / "traces.pkl"
        with open(inputs.pickle_path, "wb") as fh:
            pickle.dump(list(traces), fh, protocol=pickle.HIGHEST_PROTOCOL)
        inputs.traces = list(traces)
        timer.lap("setup.child_input_s")
    if workload.service:
        inputs.window_us = max(1, trace_us // SERVICE_WINDOWS)
        inputs.checkpoint_every = (
            inputs.records_written // (SERVICE_CHECKPOINTS + 1) + 1
        )

    digest = DigestPass()
    passes = (
        windowed_passes(inputs.window_us)
        if workload.service
        else representative_passes(inputs.duration_us)
    )
    report = JigsawPipeline(unifier=workload.make_reference_unifier()).run(
        reference_traces,
        clock_groups=inputs.clock_groups,
        passes=[*passes, digest],
        materialize=False,
    )
    reference = Reference(
        digest=report.passes[digest.name],
        stats=report_stats(report),
        ingest=ingest,
        fault_plan=fault_plan,
        offsets_us=dict(report.bootstrap.offsets_us),
    )
    if workload.service:
        # The batch pipeline never calls seal_ready, so every window is
        # in each pass's finish() tail.
        reference.windows = window_ledger(
            [w for p in passes for w in report.passes[p.name]["tail"]]
        )
    timer.lap("setup.reference_s")
    return Prepared(
        inputs=inputs,
        reference=reference,
        setup={stage: timer.raw.get(stage, 0.0) for stage in SETUP_STAGES},
        setup_s=sum(timer.reference.values()),
    )


# --- the timed call -------------------------------------------------------


def run_once(
    workload: Workload,
    inputs: Inputs,
    probes: Sequence[PipelinePass] = (),
    checkpoints: bool = True,
    feed: Optional[ReplayFeed] = None,
) -> Tuple[JigsawReport, Optional[ServiceReport]]:
    """One complete input -> report run of the workload."""
    if workload.service:
        if feed is None:
            feed = ReplayFeed(inputs.traces, inputs.clock_groups)
        daemon = JigsawDaemon(
            feed,
            passes=[*windowed_passes(inputs.window_us), *probes],
            materialize=False,
            checkpoint_path=(
                inputs.workdir / "service.ckpt" if checkpoints else None
            ),
            checkpoint_every=inputs.checkpoint_every,
        )
        if isinstance(feed, LagObservingFeed):
            feed.daemon = daemon
        service = daemon.serve()
        assert service is not None
        return service.report, service
    traces: Sequence[Any]
    if inputs.trace_dir is not None:
        traces = open_trace_streams(inputs.trace_dir, policy=inputs.policy)
    else:
        assert inputs.traces is not None
        traces = inputs.traces
    report = JigsawPipeline(unifier=workload.make_unifier()).run(
        traces,
        clock_groups=inputs.clock_groups,
        passes=[*representative_passes(inputs.duration_us), *probes],
        materialize=False,
    )
    return report, None


# --- correctness ----------------------------------------------------------


def check_stats(stats: Dict[str, Any], reference: Reference) -> List[str]:
    return [
        f"{layer}: got {stats[layer]!r}, reference {expected!r}"
        for layer, expected in reference.stats.items()
        if stats[layer] != expected
    ]


def check_run(
    report: JigsawReport,
    service: Optional[ServiceReport],
    reference: Reference,
    records_written: int,
    digest: Optional[str] = None,
) -> List[str]:
    """Mismatches between one run's output and the reference (empty = ok)."""
    problems = check_stats(report_stats(report), reference)
    if digest is not None and digest != reference.digest:
        problems.append(f"digest: got {digest}, reference {reference.digest}")
    if reference.windows is not None:
        assert service is not None
        published = window_ledger(service.published)
        if published != reference.windows:
            problems.append(
                f"published windows: {len(published)} differ from the "
                f"batch run's {len(reference.windows)}"
            )
    if reference.ingest is not None:
        problems.extend(
            check_fault_ledger(
                report.health.ingest,
                reference.ingest,
                reference.fault_plan,
                records_written,
            )
        )
    elif report.health.ingest.records_decoded and not report.health.ingest.clean:
        problems.append(
            f"clean input decoded dirty: {report.health.ingest.summary()}"
        )
    return problems


def check_fault_ledger(
    ingest: DecodeHealth,
    scalar: DecodeHealth,
    plan: Optional[FaultPlan],
    records_written: int,
) -> List[str]:
    """The damage the run reports against the injector's ground truth.

    Exact where the outcome is determined: the batch decoder's ledger
    equals the scalar decoder's.  Otherwise only what the injector
    guarantees for every seed: a smashed header never decodes, so at
    least that many records are missing; a tail can be left only by a
    file that was cut or corrupted (a smashed last record reads as one).
    How many resync events a smashed header costs is not determined —
    the scanner may also eat a neighbour — so it is not checked.
    """
    assert plan is not None
    problems = []
    if ingest != scalar:
        problems.append(
            f"ingest ledger: got {ingest.summary()}, "
            f"scalar decoder {scalar.summary()}"
        )
    corrupted = sum(len(v) for v in plan.corrupted_records.values())
    lost = records_written - ingest.records_decoded
    if lost < corrupted:
        problems.append(
            f"{corrupted} headers were smashed but only {lost} records "
            "are missing"
        )
    damaged_files = len(set(plan.truncated) | set(plan.corrupted_records))
    if ingest.truncated_tails + ingest.stream_errors > damaged_files:
        problems.append(
            f"{ingest.truncated_tails} truncated tails reported, "
            f"{damaged_files} files were damaged"
        )
    return problems


def failed_share(report: JigsawReport, records_written: int) -> float:
    """Records written that never reached a jframe, as a share."""
    stats = report.unification.stats
    lost_in_decode = records_written - stats.records_in
    return (
        lost_in_decode + stats.records_skipped_unsynchronized
    ) / records_written
