"""Service-mode liveness: watermarks advance, queues stay bounded.

Parity says a daemon run ends in the right state; liveness says it
*behaves* like a service along the way:

* the emission watermark is monotone — it never regresses, including
  across a checkpoint/restore boundary;
* windowed pass output is published strictly before end-of-stream
  (a batch pipeline only ever reports at ``finish()``);
* a consumer that stops draining bounds queue depth at the configured
  maximum, never O(trace) — producers feel backpressure;
* the daemon's own k-way backlog (jframes merged but not yet provably
  next) stays bounded by the scheduling slice, not by records consumed,
  and what the exchange assembler retains by its horizons;
* the checkpoint counters advance with every checkpoint written;
* a checkpoint written by a forked writer is byte for byte the one the
  inline writer writes, a writer that fails surfaces as
  :class:`CheckpointError` with the previous checkpoint intact, and a
  killed daemon leaves on disk the last boundary's checkpoint;
* a source that stops producing trips a deterministic idle limit
  (:class:`ServiceStalled`) instead of deadlocking the daemon.
"""

import io
import os
import pickle
from pathlib import Path

import pytest

from repro.core.link.attempt import TransmissionAttempt
from repro.core.link.exchange import (
    EXCHANGE_SPAN_LIMIT_HORIZONS,
    ExchangeAssembler,
)
from repro.core.passes import PipelinePass
from repro.core.unify.jframe import JFrame, JFrameKind
from repro.dot11.address import MacAddress
from repro.dot11.frame import make_data
from repro.jtrace.records import RecordKind, TraceRecord
from repro.service import (
    CheckpointError,
    JigsawDaemon,
    QueueFeed,
    RadioQueue,
    ServiceStalled,
    load_checkpoint,
)
from repro.service.daemon import SLICE
from repro.service.queues import feed_pump_from_records
from repro.service.windows import WindowedSummaryPass
from repro.sim import ScenarioConfig
from repro.sim.registry import scenario_config
from repro.sim.stream import live_feed

pytestmark = pytest.mark.service

WINDOW_US = 100_000
CHECKPOINT_EVERY = 60


def tiny_config():
    return ScenarioConfig.tiny(seed=13)


class WatermarkProbe(PipelinePass):
    """Records the watermark at every sealing opportunity.

    The observation list is part of the pass state, so it rides inside
    checkpoints: a restored daemon keeps appending to the prefix the
    crashed daemon accumulated — exactly the sequence the monotonicity
    assertion must hold over.
    """

    name = "watermark_probe"

    def __init__(self):
        self.observed = []

    def seal_ready(self, watermark_us):
        self.observed.append(watermark_us)
        return []

    def finish(self, context):
        return list(self.observed)


def make_record(radio_id, ts):
    return TraceRecord(
        radio_id=radio_id,
        timestamp_us=ts,
        kind=RecordKind.VALID,
        channel=6,
        rate_mbps=11.0,
        rssi_dbm=-60.0,
        frame_len=3,
        fcs=0xABC,
        snap=b"abc",
        duration_us=100,
    )


class TestWatermarkMonotonicity:
    def test_watermark_never_regresses_uninterrupted(self):
        daemon = JigsawDaemon(
            live_feed(tiny_config()), passes=[WatermarkProbe()]
        )
        svc = daemon.serve()
        observed = svc.report.passes["watermark_probe"]
        assert observed, "the probe never saw a sealing opportunity"
        assert all(
            a <= b for a, b in zip(observed, observed[1:])
        ), "watermark regressed mid-run"
        assert observed[-1] > float("-inf")

    def test_watermark_never_regresses_across_restore(self, tmp_path):
        checkpoint = tmp_path / "svc.ckpt"
        d1 = JigsawDaemon(
            live_feed(tiny_config()),
            passes=[WatermarkProbe()],
            checkpoint_path=checkpoint,
            checkpoint_every=CHECKPOINT_EVERY,
        )
        assert d1.serve(stop_after_records=3 * CHECKPOINT_EVERY) is None
        d2 = JigsawDaemon.restore(
            checkpoint, live_feed(tiny_config()),
            checkpoint_every=CHECKPOINT_EVERY,
        )
        svc = d2.serve()
        observed = svc.report.passes["watermark_probe"]
        # The restored probe continues the checkpointed prefix: one list,
        # spanning the restore boundary, still monotone.
        assert len(observed) > 1
        assert all(
            a <= b for a, b in zip(observed, observed[1:])
        ), "watermark regressed across checkpoint/restore"


class TestMidStreamPublication:
    def test_windows_published_before_end_of_stream(self):
        """Stop the daemon mid-trace: sealed windows must already be
        out, which is exactly what ``finish()``-only reporting can't
        do.

        Uses the flash_crowd shape: its dense traffic keeps every
        sender's exchange turning over, so the exchange emission bound
        (the daemon watermark) clears whole windows well before
        end-of-stream.  Sparse shapes can pin the bound on a long-open
        exchange until the final horizon sweep.
        """
        daemon = JigsawDaemon(
            live_feed(scenario_config("flash_crowd", "tiny", seed=13)),
            passes=[WindowedSummaryPass(WINDOW_US)],
        )
        assert daemon.serve(stop_after_records=3_000) is None  # mid-trace
        published = daemon.published_windows
        assert published, "no window published before end of stream"
        assert all(
            w.end_us <= daemon.watermark_us for w in published
        ), "published a window the watermark had not passed"

    def test_published_set_grows_to_final(self):
        daemon = JigsawDaemon(
            live_feed(tiny_config()),
            passes=[WindowedSummaryPass(WINDOW_US)],
        )
        svc = daemon.serve()
        keys = [w.key for w in svc.published]
        assert len(keys) == len(set(keys)), "ledger published duplicates"
        # Window ids are gap-free from 0: the sealed sequence is dense.
        ids = sorted(w.window_id for w in svc.published)
        assert ids == list(range(len(ids)))
        total_jframes = sum(
            w.payload["jframes"] for w in svc.published
        )
        assert total_jframes == svc.report.unification.stats.jframes


class TestQueueBackpressure:
    def test_slow_consumer_bounds_depth(self):
        """Producer keeps pushing, consumer never drains: depth caps at
        maxlen and the producer observes backpressure."""
        queue = RadioQueue(radio_id=1, maxlen=32)
        accepted = rejected = 0
        for i in range(10_000):
            if queue.push(make_record(1, 1000 + i)):
                accepted += 1
            else:
                rejected += 1
        assert queue.depth == 32
        assert accepted == 32
        assert rejected == 10_000 - 32

    def test_depth_recovers_after_drain(self):
        queue = RadioQueue(radio_id=1, maxlen=4)
        for i in range(4):
            assert queue.push(make_record(1, i))
        assert not queue.push(make_record(1, 99))
        assert queue.pop() is not None
        assert queue.push(make_record(1, 100))
        assert queue.depth == 4

    def test_queue_feed_depth_is_maxlen_not_trace_length(self):
        records = {1: [make_record(1, 1000 + 10 * i) for i in range(5000)]}
        feed = QueueFeed([1], feed_pump_from_records(records), maxlen=64)
        # One pull primes the pump; the pump pushes until backpressure.
        first = feed.next_record(1)
        assert first is records[1][0]
        assert feed.queue(1).depth <= 64
        # Drain everything; the bound holds throughout.
        count = 1
        while True:
            record = feed.next_record(1)
            if record is None:
                break
            assert feed.queue(1).depth <= 64
            count += 1
        assert count == 5000

    def test_push_after_close_rejected(self):
        queue = RadioQueue(radio_id=1, maxlen=4)
        queue.close()
        with pytest.raises(ValueError, match="close"):
            queue.push(make_record(1, 1))

    def test_seek_positions_the_producer(self):
        records = {1: [make_record(1, 1000 + 10 * i) for i in range(20)]}
        feed = QueueFeed([1], feed_pump_from_records(records), maxlen=4)
        feed.seek({1: 12})
        assert feed.consumed() == {1: 12}
        assert feed.next_record(1) is records[1][12]
        assert feed.consumed() == {1: 13}

    def test_seek_rejects_what_it_cannot_honour(self):
        feed = QueueFeed([1], lambda f, r: None)
        with pytest.raises(KeyError, match="unknown radio id 2"):
            feed.seek({2: 0})
        with pytest.raises(ValueError, match="non-negative"):
            feed.seek({1: -1})
        feed.push(1, make_record(1, 1000))
        with pytest.raises(ValueError, match="non-empty queue"):
            feed.seek({1: 5})


class CheckpointObservingFeed:
    """Delegates to a feed and, each time the daemon's public
    ``checkpoints_written`` count has advanced, loads the checkpoint
    and notes what ``observe(state, daemon)`` makes of it (numbers
    only: keeping every loaded state would hold the trace many times
    over)."""

    def __init__(self, feed, checkpoint_path, observe):
        self._feed = feed
        self._checkpoint_path = checkpoint_path
        self._observe = observe
        self.daemon = None
        self.observed = []

    def __getattr__(self, name):
        return getattr(self._feed, name)

    def next_record(self, radio_id):
        if self.daemon.checkpoints_written > len(self.observed):
            state = load_checkpoint(self._checkpoint_path)
            self.observed.append(self._observe(state, self.daemon))
        return self._feed.next_record(radio_id)


def backlog(state, daemon):
    """(queued jframes, shards, any finished, any watermark at +inf)"""
    return (
        sum(len(f) for f in state.merge.fifos),
        len(state.merge.engines),
        any(e.finished for e in state.merge.engines),
        any(e.watermark_us == float("inf") for e in state.merge.engines),
    )


def reachable_types(obj):
    """Every class the pickler meets walking ``obj``'s graph."""
    seen = set()

    class Walk(pickle.Pickler):
        def reducer_override(self, o):
            seen.add(type(o))
            return NotImplemented

    Walk(io.BytesIO(), pickle.HIGHEST_PROTOCOL).dump(obj)
    return seen


def retained_attempts(assembler):
    """Every attempt an ``ExchangeAssembler`` still holds: open
    exchanges, orphan queues, the reorder heap."""
    for sender in assembler._senders.values():
        if sender.open_exchange is not None:
            yield from sender.open_exchange.attempts
        yield from sender.orphan_queue
    for _, _, exchange in assembler._reorder:
        yield from exchange.attempts


def retention_floor(assembler):
    """The earliest start the span cap and the quarter-horizon sweep
    let a retained attempt have.  Measured from the feed watermark less
    the reorder slack; the cached emission bound never runs ahead of
    that, so this floor is at or above the same distance behind it."""
    ahead = assembler._watermark - assembler.reorder_slack_us
    assert assembler._bound <= ahead
    return ahead - (EXCHANGE_SPAN_LIMIT_HORIZONS + 0.25) * assembler.horizon_us


def drive_state(state, daemon):
    assembler = state.drive.exchange_assembler
    starts = [a.start_us for a in retained_attempts(assembler)]
    collector = state.drive.flow_collector
    pinned = JFrame in reachable_types(collector)
    for flow in collector._flows.values():
        flow.trim_exchange_refs()
    return {
        "retained": len(starts),
        "earliest": min(starts, default=float("inf")),
        "floor": retention_floor(assembler),
        "collector_pins_jframes": pinned,
        "pins_after_trim": JFrame in reachable_types(collector),
        "finished": any(e.finished for e in state.merge.engines),
    }


def counters(state, daemon):
    """(written per the daemon, per the file, bytes per the daemon,
    bytes on disk, seconds so far)"""
    return (
        daemon.checkpoints_written,
        state.checkpoints_written,
        daemon.checkpoint_bytes_last,
        daemon.checkpoint_path.stat().st_size,
        daemon.checkpoint_seconds_total,
    )


class TestMergeBacklog:
    @pytest.fixture(scope="class")
    def served(self, tmp_path_factory):
        """One ``materialize=False`` run of a one-second flash crowd,
        checkpointing every 4,000 records: what each observer noted at
        every checkpoint, the final report and the checkpoint file."""
        checkpoint = tmp_path_factory.mktemp("observed") / "svc.ckpt"
        config = scenario_config(
            "flash_crowd", "small", seed=13, duration_us=1_000_000
        )

        def observe(state, daemon):
            # drive_state last: it trims the loaded copy's flows.
            return {
                f.__name__: f(state, daemon)
                for f in (backlog, counters, drive_state)
            }

        feed = CheckpointObservingFeed(live_feed(config), checkpoint, observe)
        daemon = JigsawDaemon(
            feed,
            materialize=False,
            checkpoint_path=checkpoint,
            checkpoint_every=4_000,
        )
        feed.daemon = daemon
        svc = daemon.serve()
        assert svc is not None
        return feed.observed, svc, checkpoint

    def test_kway_backlog_is_bounded_by_the_slice(self, served):
        """Checkpoint size is bounded by open-window state, not records
        consumed: while every shard is still running, no shard has run
        ahead to the end of its trace and the jframes parked behind the
        release rule number at most a slice per shard."""
        observed = [o["backlog"] for o in served[0]]
        running = [o for o in observed if not o[2]]
        assert len(running) >= 5, "too few mid-trace checkpoints to judge"
        for queued, shards, _, at_end in running:
            assert queued <= shards * SLICE
            assert not at_end
        # The shards reach the end of the trace together: only the last
        # stretch's checkpoints see a finished one.
        assert len(running) >= len(observed) - 2

    def test_drive_state_is_bounded_by_the_exchange_horizons(self, served):
        """The drive's share of a ``materialize=False`` checkpoint: the
        exchange assembler keeps no attempt from further behind the
        feed than the span cap plus one sweep step, and the flow
        collector reaches jframes only through the observation ->
        exchange back-references ``trim_exchange_refs`` severs at the
        end of the run — the O(TCP segments) term still to bound."""
        observed = [o["drive_state"] for o in served[0]]
        running = [o for o in observed if not o["finished"]]
        assert len(running) >= 5, "too few mid-trace checkpoints to judge"
        assert all(o["retained"] for o in running)
        for o in running:
            assert o["earliest"] >= o["floor"]
            assert not o["pins_after_trim"]
        assert any(o["collector_pins_jframes"] for o in running), (
            "the collector no longer pins jframes mid-trace: assert that"
        )

    def test_retention_floor_holds_where_it_bites(self):
        """A one-second trace never reaches the span cap, so drive the
        assembler alone for twelve: one sender retransmitting a single
        sequence number for ever (never stale, so only the cap closes
        it), one behaving."""
        stuck = MacAddress.parse("00:0c:0c:00:00:01")
        moving = MacAddress.parse("00:0c:0c:00:00:02")
        access_point = MacAddress.parse("00:0a:0a:00:00:01")

        def attempt(src, seq, end_us, retry):
            frame = make_data(
                src, access_point, access_point, seq=seq, body=b"x",
                retry=retry,
            )
            data = JFrame(
                end_us, JFrameKind.VALID, 1, [], [], [], frame=frame,
                duration_us=100, transmitter=src,
            )
            return TransmissionAttempt(src, access_point, data=data)

        assembler = ExchangeAssembler()
        emitted = []
        for step in range(120):
            t = 1_000 + step * 100_000
            for fed in (
                attempt(stuck, 5, t, retry=step > 0),
                attempt(moving, step % 4096, t + 500, retry=False),
            ):
                emitted.extend(assembler.feed(fed))
                earliest = min(
                    a.start_us for a in retained_attempts(assembler)
                )
                assert earliest >= retention_floor(assembler)
        emitted.extend(assembler.finish())
        chains = [e for e in emitted if e.transmitter == stuck]
        assert len(chains) >= 2, "the span cap never closed the endless chain"
        assert sum(e.n_attempts for e in chains) == 120

    def test_checkpoint_counters_advance_with_every_checkpoint(self, served):
        idle = JigsawDaemon(live_feed(tiny_config()))
        assert idle.checkpoint_bytes_last == 0
        assert idle.checkpoint_seconds_total == 0.0

        noted, svc, checkpoint = served
        observed = [o["counters"] for o in noted]
        assert len(observed) >= 5
        for written, in_file, bytes_last, on_disk, _ in observed:
            assert written == in_file
            assert bytes_last == on_disk > 0
        seconds = [o[4] for o in observed]
        assert seconds[0] > 0.0
        assert all(a < b for a, b in zip(seconds, seconds[1:]))
        assert svc.checkpoints_written >= len(observed)
        assert svc.checkpoint_bytes_last == checkpoint.stat().st_size
        assert svc.checkpoint_seconds_total >= seconds[-1]


class TestStalledSource:
    def test_stalled_source_trips_idle_limit(self):
        """A pump that never produces must raise, not deadlock."""

        def dead_pump(feed, radio_id):
            return None  # no push, no close: a hung uplink

        feed = QueueFeed([1], dead_pump, idle_limit=25)
        with pytest.raises(ServiceStalled, match="25 pump attempts"):
            feed.next_record(1)

    def test_slow_but_alive_source_is_not_stalled(self):
        """Progress on any attempt resets the idle counter."""
        calls = {"n": 0}
        records = [make_record(1, 1000 + i) for i in range(10)]

        def trickle_pump(feed, radio_id):
            calls["n"] += 1
            if calls["n"] % 7 == 0:  # mostly idle, occasionally delivers
                if records:
                    feed.push(1, records.pop(0))
                else:
                    feed.close_radio(1)

        feed = QueueFeed([1], trickle_pump, idle_limit=10)
        out = []
        while True:
            record = feed.next_record(1)
            if record is None:
                break
            out.append(record)
        assert len(out) == 10

    def test_closed_stream_yields_none_forever(self):
        feed = QueueFeed([1], lambda f, r: f.close_radio(1), idle_limit=5)
        assert feed.next_record(1) is None
        assert feed.next_record(1) is None


class PoisonablePass(PipelinePass):
    """A pass whose state stops pickling once ``poison`` is set."""

    name = "poisonable"

    def __init__(self):
        self.poison = None

    def finish(self, context):
        return None


class PoisoningFeed:
    """Delegates to a feed and, at the ``after``-th record request, gives
    ``target`` state no pickler can write."""

    def __init__(self, feed, target, after):
        self._feed = feed
        self._target = target
        self._after = after
        self._requests = 0

    def __getattr__(self, name):
        return getattr(self._feed, name)

    def next_record(self, radio_id):
        self._requests += 1
        if self._requests == self._after:
            self._target.poison = (n for n in ())
        return self._feed.next_record(radio_id)


WRITER_EVERY = 1_500


def flash_config():
    return scenario_config("flash_crowd", "tiny", seed=13)


def published_checkpoints(checkpoint, forked):
    """Serve a tiny flash crowd to the end with the forked writer or,
    with ``os.fork`` removed, the inline one; the bytes of every
    checkpoint the daemon published, read as it renamed each into
    place."""
    published = []
    replace = os.replace

    def noting_replace(src, dst):
        if Path(dst) == checkpoint:
            published.append(Path(src).read_bytes())
        replace(src, dst)

    with pytest.MonkeyPatch.context() as mp:
        if not forked:
            mp.delattr(os, "fork")
        mp.setattr(os, "replace", noting_replace)
        svc = JigsawDaemon(
            live_feed(flash_config()),
            checkpoint_path=checkpoint,
            checkpoint_every=WRITER_EVERY,
        ).serve()
    assert svc is not None
    assert svc.checkpoints_written == len(published)
    assert checkpoint.read_bytes() == published[-1]
    if forked:
        assert svc.checkpoint_writer_cpu_s > 0.0
        assert svc.checkpoint_writer_peak_rss_kb > 0
    else:
        assert svc.checkpoint_writer_cpu_s == 0.0
        assert svc.checkpoint_writer_peak_rss_kb == 0
    return published


def loaded(raw, path):
    path.write_bytes(raw)
    return load_checkpoint(path)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestCheckpointWriter:
    @pytest.fixture(scope="class")
    def published(self, tmp_path_factory):
        return {
            forked: published_checkpoints(
                tmp_path_factory.mktemp("writer") / "svc.ckpt", forked
            )
            for forked in (True, False)
        }

    def test_forked_and_inline_writers_write_identical_files(
        self, published, tmp_path
    ):
        forked, inline = published[True], published[False]
        assert len(inline) >= 3
        assert forked == inline
        ordinals = [
            loaded(raw, tmp_path / "c.ckpt").checkpoints_written
            for raw in inline
        ]
        assert ordinals == list(range(1, len(inline) + 1))

    def test_kill_leaves_the_last_boundary_on_disk(self, published, tmp_path):
        """A kill returns only once the writer in flight is published:
        one record after a boundary, its checkpoint is already the
        file, and between two boundaries the earlier one is."""
        files = published[True]
        boundaries = [
            loaded(raw, tmp_path / "c.ckpt").total_consumed for raw in files
        ]
        checkpoint = tmp_path / "svc.ckpt"
        for k in (boundaries[0] + 1, (boundaries[1] + boundaries[2]) // 2):
            daemon = JigsawDaemon(
                live_feed(flash_config()),
                checkpoint_path=checkpoint,
                checkpoint_every=WRITER_EVERY,
            )
            assert daemon.serve(stop_after_records=k) is None
            last = max(i for i, b in enumerate(boundaries) if b <= k)
            assert load_checkpoint(checkpoint).total_consumed == boundaries[last]
            assert checkpoint.read_bytes() == files[last]
            assert daemon.checkpoints_written == last + 1

    @pytest.mark.parametrize("forked", [True, False], ids=["forked", "inline"])
    def test_failed_writer_raises_and_keeps_the_previous_checkpoint(
        self, forked, tmp_path, monkeypatch
    ):
        """A pass that stops pickling after the first checkpoint: the
        second writer fails, ``serve()`` raises with its exception, and
        the first checkpoint is still the file, with nothing beside it."""
        if not forked:
            monkeypatch.delattr(os, "fork")
        checkpoint = tmp_path / "svc.ckpt"
        target = PoisonablePass()
        daemon = JigsawDaemon(
            PoisoningFeed(
                live_feed(flash_config()), target, after=3 * WRITER_EVERY // 2
            ),
            passes=[target],
            checkpoint_path=checkpoint,
            checkpoint_every=WRITER_EVERY,
        )
        with pytest.raises(
            CheckpointError, match="cannot pickle 'generator' object"
        ):
            daemon.serve()
        assert daemon.checkpoints_written == 1
        assert load_checkpoint(checkpoint).checkpoints_written == 1
        assert [p.name for p in tmp_path.iterdir()] == [checkpoint.name]
