"""Streaming scenario execution: simulator records feed the pipeline live.

:func:`stream_scenario` runs a scenario *incrementally*: instead of
driving the kernel to completion and materializing every monitor trace,
it exposes one :class:`~repro.jtrace.io.RadioTrace` per radio — with a
batch source, like the traces :func:`~repro.jtrace.io.open_trace_stream`
opens — whose records are produced by advancing the shared
discrete-event kernel in bounded time slices on demand.
``JigsawPipeline.run`` therefore consumes a simulated run through the
identical single-read path it uses for on-disk traces:

* the bootstrap prepass pulls only each radio's examination-window
  prefix, which advances the simulation just far enough to produce it;
* unification replays the buffered prefix and drains the remainder,
  pulling the rest of the simulation through the same read;
* record ownership moves from the monitor radios to the consuming
  readers (:meth:`~repro.monitor.radio.MonitorRadio.drain_captured`),
  each kernel slice's captures handed over as one
  :class:`~repro.jtrace.records.RecordBatch`, so a streamed run never
  holds a second materialized copy of the traces.

Because the simulation itself is deterministic and oblivious to when its
records are harvested, a streamed run is bit-identical — jframe for
jframe — to materializing the same scenario with
:func:`~repro.sim.runner.run_scenario` and piping the traces in
afterwards (``tests/test_sim_stream.py`` holds this on a small scenario,
``tests/test_scenario_registry.py`` on every registered family).

Typical use::

    from repro.core import JigsawPipeline
    from repro.sim.stream import stream_scenario

    streamed = stream_scenario(ScenarioConfig.small(seed=7))
    report = JigsawPipeline().run(
        streamed.traces, clock_groups=streamed.clock_groups()
    )
    artifacts = streamed.artifacts()   # oracle: ground truth, flows, wired
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterator, List, Optional

from ..jtrace.io import RadioTrace
from ..jtrace.records import RecordBatch, TraceRecord, batch_from_records
from ..sim.runner import (
    ScenarioWorld,
    SimulationArtifacts,
    build_scenario,
    finalize_scenario,
)
from ..sim.scenario import ScenarioConfig

#: Default kernel advance per pull, in simulated microseconds.  Small
#: enough that the bootstrap prepass only simulates a little past its
#: examination window; large enough that slice overhead stays negligible.
DEFAULT_CHUNK_US = 250_000


class StreamedScenario:
    """A scenario being executed lazily behind streaming trace readers.

    ``traces`` are :class:`RadioTrace` objects reading a batch source; any
    consumer pulling records (the pipeline's bootstrap window feed, the
    merge's drain) advances the shared kernel chunk by chunk until the
    requested records exist.  All readers share one simulation: advancing
    for one radio harvests newly captured records into every radio's
    queue.
    """

    def __init__(self, world: ScenarioWorld, chunk_us: int) -> None:
        if chunk_us <= 0:
            raise ValueError("chunk_us must be positive")
        self._world = world
        self._chunk_us = chunk_us
        self._duration_us = world.config.duration_us
        self._complete = False
        self._artifacts: Optional[SimulationArtifacts] = None
        self._radios = [
            radio for pod in world.pods for radio in pod.radios
        ]
        self._queues: Dict[int, Deque[RecordBatch]] = {
            radio.radio_id: deque() for radio in self._radios
        }
        #: One streaming reader per radio — the pipeline's input.  A
        #: monitor radio stamps every record with its own channel, so
        #: each trace declares that channel and the shard partition
        #: runs none of the simulation.
        self.traces: List[RadioTrace] = [
            RadioTrace(
                radio.radio_id,
                radio.channel.number,
                building_id=radio.trace.building_id,
                source=self._source(radio.radio_id),
                channel_set=frozenset((radio.channel.number,)),
            )
            for radio in self._radios
        ]

    @property
    def config(self) -> ScenarioConfig:
        return self._world.config

    def clock_groups(self) -> List[List[int]]:
        """Radio ids sharing one capture clock (bootstrap metadata)."""
        return self._world.clock_groups()

    def artifacts(self) -> SimulationArtifacts:
        """The oracle bundle; runs any remaining simulation to the end.

        The bundle's ``radio_traces`` are empty — record ownership moved
        into :attr:`traces` as they were consumed — but ground truth,
        flow outcomes, the wired trace and roam events are all present.
        """
        while self._advance():
            pass
        assert self._artifacts is not None
        return self._artifacts

    # --- the shared feed --------------------------------------------------

    def _advance(self) -> bool:
        """Run one more kernel slice; False once the run has completed."""
        if self._complete:
            return False
        kernel = self._world.kernel
        target = min(kernel.now_us + self._chunk_us, self._duration_us)
        kernel.run_until(target)
        self._harvest()
        if target >= self._duration_us:
            self._artifacts = finalize_scenario(self._world)
            self._complete = True
        return True

    def _harvest(self) -> None:
        for radio in self._radios:
            drained = radio.drain_captured()
            if drained:
                self._queues[radio.radio_id].append(
                    batch_from_records(drained)
                )

    def _source(self, radio_id: int) -> Iterator[RecordBatch]:
        queue = self._queues[radio_id]
        while True:
            while queue:
                yield queue.popleft()
            if not self._advance():
                return


def stream_scenario(
    config: ScenarioConfig, chunk_us: int = DEFAULT_CHUNK_US
) -> StreamedScenario:
    """Build a scenario for lazy, pipeline-driven execution."""
    return StreamedScenario(build_scenario(config), chunk_us)


class LiveScenarioFeed:
    """Service-mode source adapter: one record at a time, per radio.

    The service daemon's merge engines read exactly one successor
    record with each heap pop (before anything else happens), so
    the daemon's input is a per-radio cursor rather than a bulk trace
    drain.  This adapter wraps a :class:`StreamedScenario` in that
    shape — it is the test double for a live radio uplink: calling
    :meth:`next_record` may advance the shared simulation kernel just
    far enough to produce the requested record, exactly as a socket
    read would block until a monitor pushed one.

    Resume: the simulation is deterministic and oblivious to when its
    records are harvested, so the record at index ``i`` of a radio's
    stream is identical across daemon incarnations.  A restored daemon
    rebuilds the feed from the same :class:`ScenarioConfig` and calls
    :meth:`seek` with the checkpoint's per-radio consumed counts; the
    replay prefix re-decodes (cheap at service-test scale) and the
    cursors land on the first unconsumed record.
    """

    def __init__(self, scenario: StreamedScenario) -> None:
        self._scenario = scenario
        self._by_radio: Dict[int, RadioTrace] = {
            trace.radio_id: trace for trace in scenario.traces
        }
        self._cursor: Dict[int, int] = {
            radio_id: 0 for radio_id in self._by_radio
        }

    @property
    def config(self) -> ScenarioConfig:
        return self._scenario.config

    @property
    def traces(self) -> List[RadioTrace]:
        """The roster: the daemon reads each trace's radio id, channel
        and building, and every record through :meth:`next_record`."""
        return self._scenario.traces

    def clock_groups(self) -> List[List[int]]:
        return self._scenario.clock_groups()

    def artifacts(self) -> SimulationArtifacts:
        return self._scenario.artifacts()

    def seek(self, consumed: Dict[int, int]) -> None:
        """Position every cursor at a checkpoint's consumed counts."""
        for radio_id, count in consumed.items():
            if radio_id not in self._cursor:
                raise KeyError(f"unknown radio id {radio_id}")
            if count < 0:
                raise ValueError("consumed counts must be non-negative")
            self._cursor[radio_id] = count

    def next_record(self, radio_id: int) -> Optional[TraceRecord]:
        """The next unconsumed record for ``radio_id``; None at EOF."""
        trace = self._by_radio[radio_id]
        index = self._cursor[radio_id]
        if not trace.ensure_index(index):
            return None
        self._cursor[radio_id] = index + 1
        return trace.replay_buffer[index]


def live_feed(
    config: ScenarioConfig, chunk_us: int = DEFAULT_CHUNK_US
) -> LiveScenarioFeed:
    """Open a scenario as a live per-radio record feed (service mode)."""
    return LiveScenarioFeed(stream_scenario(config, chunk_us))
