"""Bootstrap synchronization (Section 4.1).

Establishes a single universal time standard across all radios before
unification begins:

1. examine the first ~second of each trace for *reference frames* —
   unique frames heard by two or more radios;
2. group receptions of the same frame into sets ``E_k`` of
   ``(radio, local timestamp)`` pairs;
3. greedily select a covering family ``G`` of the largest sets;
4. breadth-first-search the radio graph induced by ``G`` from radio ``r1``,
   propagating clock offsets ``T_i`` along edges (each shared frame gives
   ``T_j = T_i + y_i - y_j``);
5. bridge across channels through monitors whose two radios share one
   capture clock (``T_i = T_j`` exactly), since a frame on channel 1 is
   never heard by a radio parked on channel 11.

Radios unreachable from ``r1`` are reported as a partition — the failure
mode the paper hits when reducing to 10 pods (Section 6) — and resolved
into a quarantine ledger rather than an error.

Collection architecture
-----------------------

Reference-set collection is *incremental and single-read*: one
:class:`_BootstrapShard` accumulates the sets across auto-widen rounds,
and each round feeds it only the records between the old and the new
window limit (:func:`_window_cutoff` — one ``buffered_until`` per trace
per round).  File-backed streaming inputs decode just the prefix the
window needs and buffer it for unification to replay, so every trace is
read once per run.  Arrival order is recorded
as absolute ``(trace position, record index)`` pairs, so incremental
feeding reproduces a from-scratch collection at the final window exactly.

Every downstream step (:func:`_select_covering_family`,
:func:`_resolve_offsets`) is deterministic given the set *values*: tie-breaks
between equal-size reference sets use the recorded arrival order — never
dict insertion order.
"""

from __future__ import annotations

import logging
from collections import defaultdict, deque
from dataclasses import dataclass, field
from itertools import compress, islice, repeat
from operator import is_, itemgetter
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ...jtrace.io import RadioTrace
from ...jtrace.records import RecordKind, TraceRecord
from .refs import _REFERENCE_VERDICTS, ReferenceKey, reference_verdict

logger = logging.getLogger(__name__)

_KIND = itemgetter(TraceRecord._fields.index("kind"))

#: Default bootstrap examination window ("the first second of data").
DEFAULT_BOOTSTRAP_WINDOW_US = 1_000_000

#: Default clock-fit stability tolerance.  Legitimate skew across even the
#: widest (16 s) examination window at 100 ppm drifts offsets by ~1.6 ms;
#: a radio whose redundant reference edges disagree by more than this is
#: not drifting — its clock stepped (reboot, firmware jump) inside the
#: window, and trusting any single fit for it would smear the timeline.
DEFAULT_STABILITY_TOLERANCE_US = 50_000.0

#: Quarantine reason strings (values of ``BootstrapResult.quarantined``).
QUARANTINE_NO_REFERENCES = "no-references"
QUARANTINE_UNSTABLE_CLOCK = "unstable-clock-fit"

#: Absolute arrival coordinate of a reference set's first sighting:
#: ``(position of the trace in the input sequence, record index)``.  Being
#: absolute — not a collection-order counter — it is identical whether the
#: records were consumed in one sweep or in widening increments.
ArrivalIndex = Tuple[int, int]


@dataclass
class BootstrapResult:
    """Offsets placing every reachable radio on the universal timeline.

    ``offsets_us[r]`` is ``T_r``: universal = local + T_r at bootstrap time.

    Degraded-mode fields (all empty on a fully-connected bootstrap):
    ``quarantined`` maps each radio left off the timeline to *why* —
    ``"no-references"`` (it shares no usable frame with anyone),
    ``"sync-island:<k>"`` (it synchronized fine, but only within a
    reference-graph island disconnected from the primary one), or
    ``"unstable-clock-fit"`` (its redundant reference edges disagree
    beyond the stability tolerance — a stepped clock).  ``islands`` lists
    the connected components of the reference graph in discovery order
    (the primary island first is *not* guaranteed; it is the largest).
    ``rejoined`` lists radios that were unreachable in an earlier
    auto-widen round but gained references when the window grew —
    the late-rejoin path.  ``unreachable`` remains the plain list of
    radios without offsets (the union of all quarantine reasons),
    preserving its historical meaning.
    """

    offsets_us: Dict[int, float]
    unreachable: List[int] = field(default_factory=list)
    reference_sets_used: int = 0
    reference_frames_seen: int = 0
    window_us: int = DEFAULT_BOOTSTRAP_WINDOW_US
    quarantined: Dict[int, str] = field(default_factory=dict)
    islands: List[List[int]] = field(default_factory=list)
    rejoined: List[int] = field(default_factory=list)
    widen_rounds: int = 0

    @property
    def fully_synchronized(self) -> bool:
        return not self.unreachable


class _BootstrapShard:
    """Incremental reference-set collector.

    Consumes records via :meth:`feed_slice` and accumulates ``E_k``
    member sets keyed by reference content.  The caller owns window
    gating — a shard never rejects a record — which is what lets the
    auto-widen loop continue feeding exactly the records between the old
    and new window limits instead of re-reading from the start.
    """

    __slots__ = ("sets", "order", "seen")

    def __init__(self) -> None:
        #: Every reference set seen so far, singletons included.
        self.sets: Dict[ReferenceKey, Dict[int, int]] = {}
        #: Each set's earliest arrival coordinate.
        self.order: Dict[ReferenceKey, ArrivalIndex] = {}
        #: Count of qualifying (reference-keyed) records consumed.
        self.seen = 0

    def feed_slice(
        self,
        records: Sequence[TraceRecord],
        lo: int,
        hi: int,
        trace_pos: int,
        radio_id: int,
    ) -> None:
        """Collect ``records[lo:hi]`` of one trace.

        The caller has already resolved the window cutoff (one bisect per
        trace per widen round), so this loop carries no per-record window
        compare — the hot path of the prepass.  ``radio_id`` is the
        *owning trace's* radio — the attribution the merge engine also
        uses — not the record's own field, so a mislabeled record cannot
        smuggle a foreign radio into the offset graph.
        """
        sets = self.sets
        order = self.order
        verdict_get = _REFERENCE_VERDICTS.get
        seen = 0
        # Most of a building's records are PHY errors or corrupt
        # captures; the VALID ones are picked out at C speed.
        valid = map(
            is_, map(_KIND, islice(records, lo, hi)), repeat(RecordKind.VALID)
        )
        for idx in compress(range(lo, hi), valid):
            record = records[idx]
            # One verdict per distinct capture: a probe, and a parse
            # only the first time these bytes are seen.
            snap = record.snap
            frame_len = record.frame_len
            eligible = verdict_get((snap, frame_len))
            if eligible is None:
                eligible = reference_verdict(record)
            if not eligible:
                continue
            key = (frame_len, record.fcs, snap)
            seen += 1
            members = sets.get(key)
            if members is None:
                sets[key] = {radio_id: record.timestamp_us}
                order[key] = (trace_pos, idx)
            else:
                # A radio hears one transmission once; keep the earliest.
                members.setdefault(radio_id, record.timestamp_us)
                # A widening round can sight a key at an earlier
                # (trace, record) coordinate than the round that created
                # it; arrival order is the global minimum so incremental
                # feeding matches a from-scratch collection.
                arrival = (trace_pos, idx)
                if arrival < order[key]:
                    order[key] = arrival
        self.seen += seen


def _window_cutoff(
    trace: RadioTrace, window_us: int, lo: int
) -> Tuple[Sequence[TraceRecord], int]:
    """Records of ``trace`` and the index one past its examination window.

    One bisect on the (local-time-ordered) records instead of a
    per-record compare; streaming traces decode just far enough to
    answer, buffering what they read for later replay.
    """
    first = trace.first_timestamp_us
    if first is None:
        return (), 0
    return trace.buffered_until(first + window_us, lo)


def _shared_sets(
    sets: Dict[ReferenceKey, Dict[int, int]],
) -> Dict[ReferenceKey, Dict[int, int]]:
    """Only the sets heard by two or more radios synchronize anything."""
    return {k: v for k, v in sets.items() if len(v) >= 2}


def _select_covering_family(
    shared: Dict[ReferenceKey, Dict[int, int]],
    radios: Sequence[int],
    order: Optional[Dict[ReferenceKey, ArrivalIndex]] = None,
) -> List[Dict[int, int]]:
    """Pick, per uncovered radio, its largest E_k; stop at full coverage.

    Tie-breaking between equal-size reference sets is by earliest arrival
    (``order``), which is a property of the data — not of dict insertion
    order — so the same family is chosen no matter how the sets were
    collected or merged.
    """
    if order is None:  # arbitrary but fixed: keys are plain value tuples
        order = {key: (0, i) for i, key in enumerate(sorted(shared))}
    by_radio: Dict[int, List[ReferenceKey]] = defaultdict(list)
    for key, members in shared.items():
        for radio in members:
            by_radio[radio].append(key)
    covered: Set[int] = set()
    chosen: List[Dict[int, int]] = []
    chosen_keys: Set[ReferenceKey] = set()
    for radio in radios:
        if radio in covered:
            continue
        candidates = by_radio.get(radio)
        if not candidates:
            continue
        best = min(candidates, key=lambda k: (-len(shared[k]), order[k]))
        if best not in chosen_keys:
            chosen_keys.add(best)
            chosen.append(shared[best])
            covered.update(shared[best])
    return chosen


def bootstrap_synchronization(
    traces: Sequence[RadioTrace],
    clock_groups: Iterable[Sequence[int]] = (),
    window_us: int = DEFAULT_BOOTSTRAP_WINDOW_US,
    auto_widen: bool = True,
    max_window_us: int = 16_000_000,
    stability_tolerance_us: float = DEFAULT_STABILITY_TOLERANCE_US,
) -> BootstrapResult:
    """Compute bootstrap offsets ``T_i`` for every radio.

    ``clock_groups`` lists radios that share one physical capture clock
    (the two radios of one monitor) — infrastructure metadata the real
    deployment has from its driver configuration.  When ``auto_widen`` is
    set and the graph partitions, the examination window doubles (up to
    ``max_window_us``) before giving up, as the paper suggests.

    A still-partitioned graph (the Section 6 pod-reduction failure)
    resolves by the traces' ``building_id`` stamps.
    Unless every trace is stamped, the run is in degraded mode: the
    largest reference-graph island becomes the primary timeline and
    every other radio is quarantined with a reason
    (``BootstrapResult.quarantined``).  A fully stamped fleet — the
    caller's declaration that it spans isolated localities — expects
    one island per locality: each locality's primary island
    synchronizes on its own local timeline (its root at ``T = 0``),
    while radios fragmented off their locality's primary island remain
    unreachable — auto-widen still heals intra-building partitions,
    which are failures in any mode.  This is campus semantics:
    RF-isolated buildings can never share references, and cross-island
    timestamp alignment is physically meaningless (no frame spans
    islands, so the merge never compares timestamps across them).
    Either way radios whose clock fit is internally inconsistent
    beyond ``stability_tolerance_us`` are evicted as
    ``unstable-clock-fit``.  Radios that were unreachable in an early
    auto-widen round but gained references when the window grew are
    reported in ``rejoined``.

    Collection is incremental and single-read: every round feeds one
    :class:`_BootstrapShard` only the records between the old and the
    new window limit, and file-backed streaming inputs decode just the
    prefix the window needs (unification later replays the buffer).
    """
    if window_us <= 0:
        raise ValueError("bootstrap window must be positive")
    radios = [trace.radio_id for trace in traces]
    locality_of = resolve_locality_map(traces)
    clock_groups = [list(g) for g in clock_groups]
    shard = _BootstrapShard()
    positions = [0] * len(traces)
    current_window = window_us
    widen_rounds = 0
    ever_unreachable: Set[int] = set()
    while True:
        for pos, trace in enumerate(traces):
            lo = positions[pos]
            records, hi = _window_cutoff(trace, current_window, lo)
            if hi > lo:
                shard.feed_slice(records, lo, hi, pos, trace.radio_id)
                positions[pos] = hi
        shared = _shared_sets(shard.sets)
        family = _select_covering_family(shared, radios, shard.order)
        offsets, unreachable, quarantined, islands = _resolve_offsets(
            radios, family, clock_groups, stability_tolerance_us, locality_of
        )
        if not unreachable or not auto_widen or current_window >= max_window_us:
            log_quarantine_warning(quarantined)
            return BootstrapResult(
                offsets_us=offsets,
                unreachable=unreachable,
                reference_sets_used=len(family),
                reference_frames_seen=shard.seen,
                window_us=current_window,
                quarantined=quarantined,
                islands=islands,
                rejoined=[
                    r for r in radios
                    if r in ever_unreachable and r in offsets
                ],
                widen_rounds=widen_rounds,
            )
        ever_unreachable.update(unreachable)
        widen_rounds += 1
        current_window = min(current_window * 2, max_window_us)


def resolve_locality_map(
    traces: Sequence[RadioTrace],
) -> Optional[Dict[int, int]]:
    """radio id -> locality stamp, or ``None`` when any stamp is missing.

    The one place that decides whether a fleet is stamped: the island
    policy of :func:`bootstrap_synchronization` and the merge's shard
    partition both ask it.
    """
    stamps = {trace.radio_id: trace.building_id for trace in traces}
    if not stamps or any(value is None for value in stamps.values()):
        return None
    return stamps  # type: ignore[return-value]


def _build_adjacency(
    radios: Sequence[int],
    family: Sequence[Dict[int, int]],
    clock_groups: Iterable[Sequence[int]],
) -> Dict[int, List[Tuple[int, float]]]:
    # Edge list: radio -> [(other, delta)] with T_other = T_radio + delta.
    # Members are anchored in trace order (the order radios appear in the
    # input sequence) — the deterministic equivalent of the collection
    # insertion order, valid for any shard merge order.
    position = {radio: pos for pos, radio in enumerate(radios)}
    adjacency: Dict[int, List[Tuple[int, float]]] = defaultdict(list)
    for members in family:
        items = sorted(members.items(), key=lambda kv: position[kv[0]])
        anchor_radio, anchor_ts = items[0]
        for radio, ts in items[1:]:
            delta = float(anchor_ts - ts)   # T_radio = T_anchor + y_anchor - y_radio
            adjacency[anchor_radio].append((radio, delta))
            adjacency[radio].append((anchor_radio, -delta))
    for group in clock_groups:
        group = list(group)
        for a, b in zip(group, group[1:]):
            adjacency[a].append((b, 0.0))
            adjacency[b].append((a, 0.0))
    return adjacency


def _offsets_from(
    start: int, adjacency: Dict[int, List[Tuple[int, float]]]
) -> Dict[int, float]:
    """BFS offset propagation from ``start`` (``T_start = 0``)."""
    offsets: Dict[int, float] = {start: 0.0}
    queue = deque([start])
    while queue:
        radio = queue.popleft()
        base = offsets[radio]
        for other, delta in adjacency.get(radio, ()):
            if other not in offsets:
                offsets[other] = base + delta
                queue.append(other)
    return offsets


def _island_partition(
    radios: Sequence[int], adjacency: Dict[int, List[Tuple[int, float]]]
) -> List[List[int]]:
    """Connected components of the reference graph, in discovery order.

    Components are seeded by scanning ``radios`` in trace order and each
    component lists its members in BFS discovery order, so the partition
    is deterministic for any shard merge order (the adjacency lists are
    themselves trace-order anchored).
    """
    islands: List[List[int]] = []
    assigned: Set[int] = set()
    for seed in radios:
        if seed in assigned:
            continue
        members = [seed]
        assigned.add(seed)
        queue = deque([seed])
        while queue:
            radio = queue.popleft()
            for other, _delta in adjacency.get(radio, ()):
                if other not in assigned:
                    assigned.add(other)
                    members.append(other)
                    queue.append(other)
        islands.append(members)
    return islands


def _unstable_radios(
    offsets: Dict[int, float],
    adjacency: Dict[int, List[Tuple[int, float]]],
    tolerance_us: float,
) -> Set[int]:
    """Radios whose redundant reference edges contradict their BFS fit.

    The BFS uses a spanning tree of the reference graph; every non-tree
    edge is a consistency check for free: for an edge ``a -> (b, delta)``
    the fit predicts ``offsets[b] - offsets[a] == delta`` up to legitimate
    skew.  A residual beyond ``tolerance_us`` means at least one endpoint's
    clock stepped inside the window.  A radio is condemned only when the
    violations are *its* pattern, not a neighbor's: it must have at least
    one violated edge and violations on at least half its edges.
    """
    degree: Dict[int, int] = defaultdict(int)
    violations: Dict[int, int] = defaultdict(int)
    for radio, edges in adjacency.items():
        if radio not in offsets:
            continue
        for other, delta in edges:
            if other not in offsets:
                continue
            degree[radio] += 1
            residual = offsets[other] - offsets[radio] - delta
            if abs(residual) > tolerance_us:
                violations[radio] += 1
    return {
        radio
        for radio, bad in violations.items()
        if bad >= 1 and 2 * bad >= degree[radio]
    }


def _resolve_offsets(
    radios: Sequence[int],
    family: Sequence[Dict[int, int]],
    clock_groups: Iterable[Sequence[int]],
    stability_tolerance_us: float = DEFAULT_STABILITY_TOLERANCE_US,
    locality_of: Optional[Dict[int, int]] = None,
) -> Tuple[Dict[int, float], List[int], Dict[int, str], List[List[int]]]:
    """Offset resolution over the reference-graph islands.

    Without a ``locality_of`` map (degraded mode): instead of
    hard-failing on a partition, synchronize the *largest* island of the
    reference graph (ties go to the earliest-discovered island, which
    for a connected graph — or the historical tests' equal splits —
    reproduces the old BFS-from-``radios[0]`` result exactly) and
    quarantine everyone else with a reason.  With one (campus mode): one
    timeline per declared *locality* — each locality's primary island
    (the one holding the plurality of its radios; ties to the earliest
    discovered) synchronizes rooted at its earliest-discovered member,
    while radios fragmented off their locality's primary island stay
    unreachable (so auto-widen keeps working on intra-locality
    partitions, which are still failures) and are quarantined with a
    reason if the window cannot heal them.  In both modes radios whose clock fit is unstable (see
    :func:`_unstable_radios`) are evicted and the resolution re-run once
    without them, so one rebooting radio cannot drag its island's
    timeline around.

    Returns ``(offsets, unreachable, quarantined, islands)``.
    """
    if not radios:
        return {}, [], {}, []
    clock_groups = [list(g) for g in clock_groups]

    def local_roots(
        islands: List[List[int]], locality_of: Dict[int, int]
    ) -> List[int]:
        """Indexes of the islands campus mode synchronizes."""
        # Primary island per locality: plurality of the locality's
        # radios, ties to the earliest-discovered island.
        votes: Dict[int, Dict[int, int]] = {}
        for index, members in enumerate(islands):
            for radio in members:
                tally = votes.setdefault(locality_of[radio], {})
                tally[index] = tally.get(index, 0) + 1
        primaries = {
            max(tally, key=lambda i: (tally[i], -i))
            for tally in votes.values()
        }
        return sorted(primaries)

    def resolve(
        active: Sequence[int],
        active_family: Sequence[Dict[int, int]],
        active_clock_groups: Iterable[Sequence[int]],
    ) -> Tuple[Dict[int, float], List[List[int]], Dict[int, List[Tuple[int, float]]]]:
        adjacency = _build_adjacency(active, active_family, active_clock_groups)
        islands = _island_partition(active, adjacency)
        offsets: Dict[int, float] = {}
        if locality_of is not None:
            for index in local_roots(islands, locality_of):
                offsets.update(_offsets_from(islands[index][0], adjacency))
        else:
            primary = max(
                range(len(islands)), key=lambda i: (len(islands[i]), -i)
            )
            offsets = _offsets_from(islands[primary][0], adjacency)
        return offsets, islands, adjacency

    offsets, islands, adjacency = resolve(radios, family, clock_groups)

    unstable = _unstable_radios(offsets, adjacency, stability_tolerance_us)
    if unstable:
        # Re-resolve once without the unstable radios.  The family is
        # re-filtered — not edge-pruned — so two stable radios joined only
        # through an unstable anchor's reference set stay connected (the
        # set still covers both; only the bad clock's sample is dropped).
        active = [r for r in radios if r not in unstable]
        active_family = []
        for members in family:
            kept = {r: ts for r, ts in members.items() if r not in unstable}
            if len(kept) >= 2:
                active_family.append(kept)
        active_groups = [
            [r for r in group if r not in unstable] for group in clock_groups
        ]
        offsets, islands, _ = resolve(active, active_family, active_groups)

    island_of: Dict[int, int] = {}
    for k, members in enumerate(islands):
        for radio in members:
            island_of[radio] = k
    quarantined: Dict[int, str] = {}
    for radio in radios:
        if radio in offsets:
            continue
        if radio in unstable:
            quarantined[radio] = QUARANTINE_UNSTABLE_CLOCK
        elif len(islands[island_of[radio]]) == 1:
            quarantined[radio] = QUARANTINE_NO_REFERENCES
        else:
            quarantined[radio] = f"sync-island:{island_of[radio]}"
    unreachable = [r for r in radios if r not in offsets]
    return offsets, unreachable, quarantined, islands


def log_quarantine_warning(quarantined: Dict[int, str]) -> None:
    """One-line operator-facing warning when radios were left behind."""
    if not quarantined:
        return
    preview = ", ".join(
        f"{radio}:{reason}" for radio, reason in list(quarantined.items())[:6]
    )
    more = "..." if len(quarantined) > 6 else ""
    logger.warning(
        "bootstrap_synchronization: %d radio(s) quarantined off the primary "
        "timeline [%s%s]",
        len(quarantined), preview, more,
    )
