"""Shared fault-recovery policy for the sharded coordinators.

Both process-pool coordinators — :class:`~repro.core.sync.sharded.ShardedBootstrap`
and :class:`~repro.core.unify.hierarchy.MergeTree` — face the same
failure modes: a worker process dies (``BrokenProcessPool``), a shard
hangs past its deadline, or a worker raises a deterministic exception.
The recovery strategy is identical for both, so it lives here once:

1. retry the failed shards in a fresh pool, with capped exponential
   backoff between rounds (a dead worker often means transient memory
   pressure — give the host a beat);
2. after ``max_retries`` pool attempts, degrade the shard to serial
   in-process execution — slower, but a hung or crashing pool must never
   abort a day-scale reconstruction;
3. deterministic worker exceptions (the function itself raised) are
   *not* retried — they would fail identically every round — and
   propagate to the caller.

Everything that happened is tallied in a :class:`ShardHealth`, which the
pipeline aggregates into the run-level :class:`HealthReport` surfaced on
``report.health``.

Layering note: ``core`` imports :class:`~repro.jtrace.io.DecodeHealth`
from ``jtrace`` (the substrate), never the reverse.
"""

from __future__ import annotations

import logging
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, fields
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    cast,
)

from ..jtrace.io import DecodeHealth

logger = logging.getLogger(__name__)

#: Per-shard result type of :func:`map_shards_with_recovery`.
ShardResultT = TypeVar("ShardResultT")


@dataclass(frozen=True)
class RetryPolicy:
    """How a coordinator reacts to worker death or a missed deadline.

    ``max_retries`` counts *pool* attempts beyond the first: a shard is
    submitted to a pool at most ``1 + max_retries`` times before it is
    degraded to serial in-process execution.  ``shard_timeout_s`` is the
    per-shard deadline (``None`` disables deadlines — the historical
    behavior).  Backoff before retry round ``k`` (1-based) is
    ``min(backoff_base_s * backoff_multiplier**(k-1), backoff_cap_s)``.
    """

    max_retries: int = 2
    backoff_base_s: float = 0.05
    backoff_multiplier: float = 2.0
    backoff_cap_s: float = 1.0
    shard_timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_base_s < 0 or self.backoff_cap_s < 0:
            raise ValueError("backoff durations must be >= 0")
        if self.shard_timeout_s is not None and self.shard_timeout_s <= 0:
            raise ValueError(
                f"shard_timeout_s must be positive or None, got "
                f"{self.shard_timeout_s}"
            )

    def backoff_s(self, retry_round: int) -> float:
        """Seconds to sleep before retry round ``retry_round`` (1-based)."""
        return min(
            self.backoff_base_s * self.backoff_multiplier ** (retry_round - 1),
            self.backoff_cap_s,
        )


@dataclass
class ShardHealth:
    """What one coordinator's pool recovery observed on one run.

    ``pool_workers`` is the worker count the coordinator actually sized
    its pool to (0 = the stage ran serially in-process) — the audit trail
    for "did this run really use the pool, and how wide".  Unlike the
    fault tallies it is a *size*, not a count of events, so ``merge``
    keeps the maximum instead of summing.
    """

    shards: int = 0
    pool_retries: int = 0
    worker_crashes: int = 0
    shard_timeouts: int = 0
    shards_degraded_serial: int = 0
    pool_workers: int = 0

    def merge(self, other: "ShardHealth") -> None:
        for f in fields(self):
            if f.name == "pool_workers":
                self.pool_workers = max(self.pool_workers, other.pool_workers)
            else:
                setattr(
                    self, f.name, getattr(self, f.name) + getattr(other, f.name)
                )

    @property
    def degraded(self) -> bool:
        return bool(
            self.pool_retries
            or self.worker_crashes
            or self.shard_timeouts
            or self.shards_degraded_serial
        )

    def summary(self) -> str:
        return (
            f"shards={self.shards} workers={self.pool_workers} "
            f"retries={self.pool_retries} "
            f"crashes={self.worker_crashes} timeouts={self.shard_timeouts} "
            f"degraded_serial={self.shards_degraded_serial}"
        )


@dataclass
class SyncHealth:
    """Degraded-mode synchronization outcome for one bootstrap."""

    quarantined: Dict[int, str] = field(default_factory=dict)
    islands: List[List[int]] = field(default_factory=list)
    rejoined: List[int] = field(default_factory=list)
    widen_rounds: int = 0

    @property
    def degraded(self) -> bool:
        return bool(self.quarantined)

    def summary(self) -> str:
        return (
            f"quarantined={len(self.quarantined)} "
            f"islands={len(self.islands)} rejoined={len(self.rejoined)} "
            f"widen_rounds={self.widen_rounds}"
        )


@dataclass
class HealthReport:
    """Run-level degradation ledger, surfaced on ``report.health``.

    One section per layer that can degrade: ingest decode, clock
    synchronization, and the two sharded pool coordinators.  A report
    whose ``degraded`` is False certifies the run saw pristine inputs and
    healthy workers — exactly the conditions under which the output is
    bit-identical to the strict pipeline's.
    """

    ingest: DecodeHealth = field(default_factory=DecodeHealth)
    sync: SyncHealth = field(default_factory=SyncHealth)
    bootstrap_shards: ShardHealth = field(default_factory=ShardHealth)
    unify_shards: ShardHealth = field(default_factory=ShardHealth)

    @property
    def degraded(self) -> bool:
        return (
            not self.ingest.clean
            or self.sync.degraded
            or self.bootstrap_shards.degraded
            or self.unify_shards.degraded
        )

    def summary(self) -> str:
        return (
            f"ingest[{self.ingest.summary()}] sync[{self.sync.summary()}] "
            f"bootstrap[{self.bootstrap_shards.summary()}] "
            f"unify[{self.unify_shards.summary()}]"
        )


class PoolHandle:
    """A caller-owned, reusable process pool for repeated shard maps.

    :func:`map_shards_with_recovery` normally builds and tears down a
    pool per call.  Coordinators that map shards repeatedly — the
    bootstrap auto-widen loop re-collects every round — pass a handle so
    the worker processes stay **resident** across calls and each round
    ships only its incremental payload instead of paying a pool spawn.
    A pool fault invalidates the handle (the broken pool is abandoned);
    the next acquisition transparently builds a fresh pool.  Callers own
    the lifetime: ``close()`` when the loop is done.
    """

    def __init__(self) -> None:
        self._pool: Optional[ProcessPoolExecutor] = None
        self._workers = 0

    def acquire(self, max_workers: int) -> ProcessPoolExecutor:
        """The resident pool, (re)built at ``max_workers`` if needed."""
        if self._pool is None or self._workers != max_workers:
            self.close()
            self._pool = ProcessPoolExecutor(max_workers=max_workers)
            self._workers = max_workers
        return self._pool

    def discard_broken(self) -> None:
        """Forget the pool after a fault (caller already shut it down)."""
        self._pool = None
        self._workers = 0

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
            self._workers = 0


def map_shards_with_recovery(
    fn: Callable[..., ShardResultT],
    args_list: Sequence[Tuple[Any, ...]],
    *,
    max_workers: int,
    policy: Optional[RetryPolicy] = None,
    health: Optional[ShardHealth] = None,
    label: str = "shard",
    sleep: Callable[[float], None] = time.sleep,
    handle: Optional[PoolHandle] = None,
) -> List[ShardResultT]:
    """Run ``fn(*args)`` per shard in a process pool, surviving worker faults.

    Results come back in ``args_list`` order.  Pool-level faults — a
    worker process dying (:class:`BrokenProcessPool`) or a shard missing
    its ``policy.shard_timeout_s`` deadline — abandon the current pool,
    salvage every shard that already finished, and retry the rest in a
    fresh pool after backoff.  Shards still failing after
    ``policy.max_retries`` retries run serially in-process (``fn`` called
    directly), so a persistently broken pool degrades throughput, never
    correctness.  Exceptions raised *by fn itself* are deterministic and
    propagate immediately.

    ``sleep`` is injectable so tests exercise backoff without waiting.

    ``handle`` (optional) lends a caller-owned :class:`PoolHandle` whose
    resident pool serves the first attempt, left alive on success so the
    caller's next map reuses the warm workers.  Fault recovery is
    unchanged: a broken resident pool is abandoned (and discarded from
    the handle) and retry rounds run in fresh throwaway pools.
    """
    if policy is None:
        policy = RetryPolicy()
    if health is None:
        health = ShardHealth()
    health.shards += len(args_list)

    results: List[Optional[ShardResultT]] = [None] * len(args_list)
    pending: List[int] = list(range(len(args_list)))
    attempts = [0] * len(args_list)
    retry_round = 0

    while pending:
        # Shards out of pool budget degrade to serial in-process calls.
        exhausted = [i for i in pending if attempts[i] > policy.max_retries]
        if exhausted:
            health.shards_degraded_serial += len(exhausted)
            logger.warning(
                "%s recovery: running %d shard(s) serially in-process "
                "after %d failed pool attempt(s) each",
                label, len(exhausted), policy.max_retries + 1,
            )
            for i in exhausted:
                results[i] = fn(*args_list[i])
            pending = [i for i in pending if attempts[i] <= policy.max_retries]
            continue

        if retry_round:
            health.pool_retries += len(pending)
            backoff = policy.backoff_s(retry_round)
            logger.warning(
                "%s recovery: retrying %d shard(s) in a fresh pool "
                "(round %d, backoff %.3fs)",
                label, len(pending), retry_round, backoff,
            )
            sleep(backoff)

        borrowed = handle is not None and retry_round == 0
        if borrowed:
            assert handle is not None
            pool = handle.acquire(max_workers)
        else:
            pool = ProcessPoolExecutor(max_workers=max_workers)
        abandoned = False
        try:
            futures = {i: pool.submit(fn, *args_list[i]) for i in pending}
            for i in pending:
                attempts[i] += 1
            done: List[int] = []
            for i in pending:
                try:
                    results[i] = futures[i].result(
                        timeout=policy.shard_timeout_s
                    )
                    done.append(i)
                except FuturesTimeoutError:
                    health.shard_timeouts += 1
                    abandoned = True
                    break
                except BrokenProcessPool:
                    health.worker_crashes += 1
                    abandoned = True
                    break
            if abandoned:
                # Salvage shards whose futures completed before the fault;
                # everything else goes back on the queue for the next round.
                for i in pending:
                    if i in done:
                        continue
                    future = futures[i]
                    if future.done() and not future.cancelled():
                        try:
                            results[i] = future.result(timeout=0)
                            done.append(i)
                        except (
                            FuturesTimeoutError,
                            BrokenProcessPool,
                        ):
                            # A future that reports done but whose result
                            # died with the pool is not salvageable; it
                            # stays pending for the retry round, which the
                            # ledger already counts — note it and move on.
                            logger.debug(
                                "%s recovery: shard %d unsalvageable from "
                                "the broken pool; queued for retry",
                                label, i,
                            )
                pending = [i for i in pending if i not in done]
                retry_round += 1
            else:
                pending = []
        finally:
            # Never ``wait=True`` here: a hung worker would hang the
            # coordinator too, which is exactly what the deadline exists
            # to prevent.  A healthy borrowed pool stays alive for the
            # caller's next round; a faulted one is torn down and
            # discarded from its handle.
            if not borrowed:
                pool.shutdown(wait=False, cancel_futures=True)
            elif abandoned:
                assert handle is not None
                pool.shutdown(wait=False, cancel_futures=True)
                handle.discard_broken()

    # Every index left the pending list only by being filled in, so the
    # Optional placeholder type is provably all-ShardResultT here.
    return cast(List[ShardResultT], results)
