"""Bounded per-radio ingest queues with backpressure and stall detection.

The daemon pulls records through a tiny *feed protocol* — any object
with ``next_record(radio_id) -> Optional[TraceRecord]``, the one way a
record reaches it, plus a roster ``traces`` (record-less
:class:`~repro.jtrace.io.RadioTrace` s: radio id, channel, building),
``clock_groups()`` and ``seek()``, which the daemon calls after its
bootstrap read and on a restore.  :class:`QueueFeed` is the protocol
implementation for push-style producers, and starts a daemon on its
own: each radio owns a bounded :class:`RadioQueue`, producers push into
it and observe backpressure (``push`` returns ``False`` when the queue
is full — the producer must hold the record and retry), and the daemon
drains the other end.

Two liveness properties live here, both held by
``tests/test_service_liveness.py``:

* **bounded depth** — a radio whose consumer has fallen behind buffers
  at most ``maxlen`` records, never O(trace): the producer is pushed
  back on, exactly like a full socket buffer pushes back on a live
  monitor uplink;
* **no deadlock on a stalled source** — when the daemon needs a record
  and the queue is empty, it invokes the registered pump; if the pump
  makes no progress ``idle_limit`` consecutive times,
  :class:`ServiceStalled` is raised instead of spinning forever.

Progress is counted in pump attempts, not wall-clock seconds, so the
stall machinery is fully deterministic (and the daemon stays free of
wall-clock reads, which the repo's invariant lint bans in library
code).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Sequence

from ..jtrace.io import RadioTrace
from ..jtrace.records import TraceRecord

#: Default bound on per-radio queue depth (records).
DEFAULT_QUEUE_DEPTH = 4096

#: Default number of consecutive no-progress pump attempts tolerated
#: before the feed declares the source stalled.
DEFAULT_IDLE_LIMIT = 1000


class ServiceStalled(RuntimeError):
    """The daemon needed a record and the source stopped producing."""


class RadioQueue:
    """One radio's bounded record queue (single-threaded, deterministic).

    ``push`` applies backpressure by refusing records at capacity; the
    producer keeps the record and retries after the consumer drains.
    ``close`` marks end-of-stream: a closed, drained queue yields
    ``None`` forever, which is the daemon's end-of-trace signal.
    """

    def __init__(self, radio_id: int, maxlen: int = DEFAULT_QUEUE_DEPTH) -> None:
        if maxlen <= 0:
            raise ValueError("queue depth must be positive")
        self.radio_id = radio_id
        self.maxlen = maxlen
        self.closed = False
        self._records: Deque[TraceRecord] = deque()

    @property
    def depth(self) -> int:
        return len(self._records)

    @property
    def full(self) -> bool:
        return len(self._records) >= self.maxlen

    def push(self, record: TraceRecord) -> bool:
        """Enqueue one record; ``False`` signals backpressure (retry)."""
        if self.closed:
            raise ValueError(
                f"push after close on radio {self.radio_id}'s queue"
            )
        if len(self._records) >= self.maxlen:
            return False
        self._records.append(record)
        return True

    def close(self) -> None:
        """Mark end-of-stream; already-queued records still drain."""
        self.closed = True

    def pop(self) -> Optional[TraceRecord]:
        """Dequeue one record; ``None`` when empty (check ``drained``)."""
        if self._records:
            return self._records.popleft()
        return None

    @property
    def drained(self) -> bool:
        """True once the stream ended and every record was consumed."""
        return self.closed and not self._records


#: A pump is invoked when the daemon needs a record for ``radio_id`` and
#: the queue is empty.  It should push records (respecting backpressure)
#: or close queues; returning without either is counted as no progress.
Pump = Callable[["QueueFeed", int], None]


class QueueFeed:
    """Push-style feed: bounded queues in front of the daemon's pull loop.

    ``pump`` bridges the pull side to the push side: whenever
    :meth:`next_record` finds the requested radio's queue empty (and not
    closed), the pump runs once and gets the chance to push.  A live
    deployment would instead have sockets pushing concurrently and the
    pump would merely wait; the deterministic single-threaded shape is
    what the crash/resume parity suite needs.

    ``roster`` names the radios, one record-less
    :class:`~repro.jtrace.io.RadioTrace` each (radio id, channel and
    building); the feed serves it as ``traces``.
    """

    def __init__(
        self,
        roster: Sequence[RadioTrace],
        pump: Pump,
        maxlen: int = DEFAULT_QUEUE_DEPTH,
        idle_limit: int = DEFAULT_IDLE_LIMIT,
    ) -> None:
        if idle_limit <= 0:
            raise ValueError("idle limit must be positive")
        self.traces: List[RadioTrace] = list(roster)
        self.queues: Dict[int, RadioQueue] = {
            radio.radio_id: RadioQueue(radio.radio_id, maxlen)
            for radio in self.traces
        }
        self._pump = pump
        self._idle_limit = idle_limit
        self._consumed: Dict[int, int] = {rid: 0 for rid in self.queues}

    def queue(self, radio_id: int) -> RadioQueue:
        return self.queues[radio_id]

    def clock_groups(self) -> List[List[int]]:
        """Radios sharing one capture clock: none that a queue knows of.
        A feed over dual-radio monitors names its pairs here, or the
        bootstrap cannot bridge their channels."""
        return []

    def push(self, radio_id: int, record: TraceRecord) -> bool:
        """Producer-side entry: push one record, observing backpressure."""
        return self.queues[radio_id].push(record)

    def close_radio(self, radio_id: int) -> None:
        self.queues[radio_id].close()

    def consumed(self) -> Dict[int, int]:
        """Records handed out per radio: where a pump picks up."""
        return dict(self._consumed)

    def seek(self, consumed: Dict[int, int]) -> None:
        """Make each radio's ``consumed[radio_id]``-th record the next
        one handed out; the producer pushes from there.

        On a fresh feed (a restore) the queues hold nothing yet.  A seek
        back over records already handed out (the daemon's, after its
        bootstrap read) drops what is queued and reopens the queue.  A
        seek forward over queued records would skip records nobody
        read, and is refused.
        """
        for radio_id, count in consumed.items():
            if radio_id not in self._consumed:
                raise KeyError(f"unknown radio id {radio_id}")
            if count < 0:
                raise ValueError("consumed counts must be non-negative")
            queue = self.queues[radio_id]
            if count < self._consumed[radio_id]:
                self.queues[radio_id] = RadioQueue(radio_id, queue.maxlen)
            elif count > self._consumed[radio_id] and queue.depth:
                raise ValueError(
                    f"seek on radio {radio_id}'s non-empty queue"
                )
            self._consumed[radio_id] = count

    def next_record(self, radio_id: int) -> Optional[TraceRecord]:
        """Pull the next record for ``radio_id``; ``None`` at end of stream.

        Raises :class:`ServiceStalled` after ``idle_limit`` consecutive
        pump invocations that neither produced a record for this radio
        nor closed its stream — the daemon surfaces the error instead of
        deadlocking on a dead source.
        """
        queue = self.queues[radio_id]
        idle = 0
        while True:
            record = queue.pop()
            if record is not None:
                self._consumed[radio_id] += 1
                return record
            if queue.closed:
                return None
            self._pump(self, radio_id)
            if queue.depth == 0 and not queue.closed:
                idle += 1
                if idle >= self._idle_limit:
                    raise ServiceStalled(
                        f"source for radio {radio_id} made no progress in "
                        f"{idle} pump attempts (queue empty, not closed)"
                    )
            else:
                idle = 0


def feed_pump_from_records(
    records_by_radio: Dict[int, Sequence[TraceRecord]],
) -> Pump:
    """A pump replaying materialized per-radio record lists (tests).

    Pushes each radio's records in order, respecting backpressure, and
    closes the queue at the end — the minimal faithful producer.  A
    radio's next record is the one after those the feed handed out and
    holds queued, so the pump follows a ``seek`` wherever it lands.
    """

    def pump(sink: "QueueFeed", radio_id: int) -> None:
        handed_out = sink.consumed()
        for rid, queue in sink.queues.items():
            if queue.closed:
                continue
            records: Sequence[TraceRecord] = records_by_radio.get(rid, ())
            index = handed_out[rid] + queue.depth
            while index < len(records) and queue.push(records[index]):
                index += 1
            if index >= len(records):
                queue.close()

    return pump


__all__ = [
    "DEFAULT_IDLE_LIMIT",
    "DEFAULT_QUEUE_DEPTH",
    "Pump",
    "QueueFeed",
    "RadioQueue",
    "ServiceStalled",
    "feed_pump_from_records",
]
