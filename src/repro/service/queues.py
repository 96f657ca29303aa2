"""Bounded per-radio ingest queues with backpressure and stall detection.

The daemon pulls records through a tiny *feed protocol* — any object
with ``next_record(radio_id) -> Optional[TraceRecord]`` (plus the
``traces`` / ``clock_groups()`` / ``seek()`` surface used at bootstrap
and restore).  :class:`QueueFeed` is the protocol
implementation for push-style producers: each radio owns a bounded
:class:`RadioQueue`, producers push into it and observe backpressure
(``push`` returns ``False`` when the queue is full — the producer must
hold the record and retry), and the daemon drains the other end.

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
from typing import Callable, Deque, Dict, Optional, Sequence

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
    """

    def __init__(
        self,
        radio_ids: Sequence[int],
        pump: Pump,
        maxlen: int = DEFAULT_QUEUE_DEPTH,
        idle_limit: int = DEFAULT_IDLE_LIMIT,
    ) -> None:
        if idle_limit <= 0:
            raise ValueError("idle limit must be positive")
        self.queues: Dict[int, RadioQueue] = {
            radio_id: RadioQueue(radio_id, maxlen) for radio_id in radio_ids
        }
        self._pump = pump
        self._idle_limit = idle_limit
        self._consumed: Dict[int, int] = {rid: 0 for rid in self.queues}

    def queue(self, radio_id: int) -> RadioQueue:
        return self.queues[radio_id]

    def push(self, radio_id: int, record: TraceRecord) -> bool:
        """Producer-side entry: push one record, observing backpressure."""
        return self.queues[radio_id].push(record)

    def close_radio(self, radio_id: int) -> None:
        self.queues[radio_id].close()

    def consumed(self) -> Dict[int, int]:
        """Records handed out per radio: where a pump picks up."""
        return dict(self._consumed)

    def seek(self, consumed: Dict[int, int]) -> None:
        """Adopt a checkpoint's consumed counts (fresh feed, on restore).

        The queues hold nothing yet, so this only tells the producer
        where to pick up: the next record pushed for a radio must be its
        ``consumed[radio_id]``-th.
        """
        for radio_id, count in consumed.items():
            if radio_id not in self._consumed:
                raise KeyError(f"unknown radio id {radio_id}")
            if count < 0:
                raise ValueError("consumed counts must be non-negative")
            if self.queues[radio_id].depth:
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
    closes the queue at the end — the minimal faithful producer.  Each
    radio starts at the feed's consumed count as of the first call, so
    a pump over a ``seek``-ed feed resumes where the checkpoint left.
    """
    cursors: Dict[int, int] = {}

    def pump(sink: "QueueFeed", radio_id: int) -> None:
        if not cursors:
            cursors.update(sink.consumed())
        for rid, queue in sink.queues.items():
            records: Sequence[TraceRecord] = records_by_radio.get(rid, ())
            index = cursors[rid]
            while index < len(records) and queue.push(records[index]):
                index += 1
            cursors[rid] = index
            if index >= len(records) and not queue.closed:
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
