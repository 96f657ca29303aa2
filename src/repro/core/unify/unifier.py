"""Frame unification with continual resynchronization (Section 4.2).

The unifier consumes all radio traces through "a single priority queue
sorted by time with the earliest instance from each trace", groups
instances into jframes by content within a search window, timestamps each
jframe with "the median instance timestamp", and uses every unified unique
frame to resynchronize the contributing radios' clocks — gated on the
group dispersion threshold, with EWMA skew/drift compensation applied
proactively to every subsequent timestamp.

Grouping is implemented with an open-group index (content key -> group)
instead of literal pop-and-push-back, which gives identical grouping
decisions in O(n log n) — each record is pushed and popped exactly once —
satisfying the paper's requirement that merging "execute faster than
real-time ... in a single pass over the data".

Architecture (streaming + sharding)
-----------------------------------

Content keys, open-group queues and clock tracks are all channel-local: a
frame on channel 1 can never group with — or resynchronize against — a
record captured on channel 11.  The merge core therefore runs as one
:class:`_MergeEngine` per *channel shard* (traces partitioned by the
channels their records occupy).  Inside a shard, finalization lags
arrival by at most the search window, so a small bounded reorder heap
(rather than an end-of-run sort over every jframe) yields incrementally
ordered output.

One coordinator, :class:`UnifyStream`, reduces the shards into the
global timeline.  Each :meth:`~UnifyStream.step` advances the *laggard*
— the unfinished shard with the lowest emission watermark — by a slice
of records, and releases every queued jframe no shard can still precede,
in (timestamp, shard) order: a stable k-way merge, discovered
incrementally.  :meth:`Unifier.stream_unify` returns the coordinator
(iterate it for jframes) and :meth:`Unifier.unify` drains it into a
:class:`UnificationResult`; iteration steps it :data:`_BATCH_SLICE`
records at a time.  The service daemon holds one
over feed-backed cursors and steps it itself, a smaller slice at a time.
Batch and daemon share the schedule and the release rule, not just the
engine, and differ only in where records come from.

The engines' continuation state (record heap, reorder heap, staleness
deadline, push counter) lives on the objects, not in a generator frame —
a suspended frame cannot be pickled, and the daemon checkpoints the
coordinator mid-merge.  :meth:`_MergeEngine.advance` is the one hot
loop.
"""

from __future__ import annotations

import heapq
from collections import Counter, defaultdict, deque
from dataclasses import dataclass, fields
from itertools import compress, islice, repeat
from operator import countOf, is_, itemgetter
from typing import (
    Callable,
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    cast,
)

from ...dot11.address import MacAddress
from ...dot11.frame import Frame
from ...dot11.serialize import transmitter_from_corrupt_bytes
from ...jtrace.io import RadioTrace
from ...jtrace.records import RecordKind, TraceRecord
from ..sync.bootstrap import BootstrapResult, resolve_locality_map
from ..sync.refs import (
    _PARSE_CACHE,
    ReferenceKey,
    parse_record_frame,
    reference_verdict,
)
from ..sync.skew import ClockTrack
from .jframe import JFrame, JFrameKind

#: Paper defaults: 10 ms search window, 10 us resync threshold.
DEFAULT_SEARCH_WINDOW_US = 10_000
DEFAULT_RESYNC_THRESHOLD_US = 10.0

#: Attachment windows for content-less instances (corrupt/PHY-error).
CORRUPT_ATTACH_US = 120.0
PHY_ATTACH_US = 60.0

_INF = float("inf")

#: Records one batch :meth:`UnifyStream.step` merges before handing its
#: jframes to the consumer: large enough that the per-call prologue
#: vanishes, small enough that a lazy consumer holds a sliver of the
#: shard.
_BATCH_SLICE = 1024

#: Record field readers for C-speed ``map`` walks over record lists.
_KIND = itemgetter(TraceRecord._fields.index("kind"))
_CHANNEL = itemgetter(TraceRecord._fields.index("channel"))
_TIMESTAMP = itemgetter(TraceRecord._fields.index("timestamp_us"))


@dataclass
class UnifyStats:
    """Counters describing one unification run (Table 1 inputs)."""

    records_in: int = 0
    records_skipped_unsynchronized: int = 0
    jframes: int = 0
    valid_jframes: int = 0
    corrupt_jframes: int = 0
    phy_error_jframes: int = 0
    instances_unified: int = 0
    resyncs: int = 0

    @property
    def events_per_jframe(self) -> float:
        if self.jframes == 0:
            return 0.0
        return self.instances_unified / self.jframes

    def merge(self, other: "UnifyStats") -> None:
        """Fold another shard's counters into this one."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


#: Figure 4's population: a dispersion needs two receptions to compare.
DISPERSION_MIN_INSTANCES = 2


@dataclass
class UnificationResult:
    jframes: List[JFrame]
    tracks: Dict[int, ClockTrack]
    stats: UnifyStats

    def dispersions_us(self) -> List[float]:
        """Group dispersion samples (Figure 4's population)."""
        return [
            jf.dispersion_us
            for jf in self.jframes
            if jf.n_instances >= DISPERSION_MIN_INSTANCES
        ]


class _Group:
    """An open (not yet finalized) jframe under construction.

    Holds the jframe's columns (``radio_ids``, ``universal_us``,
    ``records``); finalizing hands them over as they are.
    """

    __slots__ = (
        "first_universal",
        "channel",
        "key",
        "radio_ids",
        "universal_us",
        "records",
        "rep_record",
        "rep_frame",
        "transmitter",
        "radios",
    )

    def __init__(
        self,
        radio_id: int,
        universal: float,
        record: TraceRecord,
        channel: int,
        key: Optional[ReferenceKey],
        rep_record: Optional[TraceRecord],
        transmitter: Optional[MacAddress],
    ) -> None:
        self.first_universal = universal
        self.channel = channel
        self.key = key
        self.radio_ids = [radio_id]
        self.universal_us = [universal]
        self.records = [record]
        self.rep_record = rep_record
        self.rep_frame: Optional[Frame] = None
        self.transmitter = transmitter
        self.radios = {radio_id}

    def add(self, radio_id: int, universal: float, record: TraceRecord) -> None:
        self.radio_ids.append(radio_id)
        self.universal_us.append(universal)
        self.records.append(record)
        self.radios.add(radio_id)


def partition_traces(traces: Sequence[RadioTrace]) -> List[List[RadioTrace]]:
    """Partition traces into independent merge shards.

    Two traces land in the same shard iff they share (transitively) any
    channel among their records *within the same locality* — the exact
    condition under which their records could interact during
    unification.  Locality is the ``building_id`` stamp campus-scale
    captures carry (written by the simulator's campus composition and by
    the trace-file metadata sidecar): radios in different buildings are
    RF-isolated — no transmission is audible in two buildings — so their
    records can never legitimately share a jframe.  If **any** trace
    lacks the stamp the whole input falls back to channel-only sharding,
    so legacy inputs — and mixed fleets where the stamp cannot be
    trusted — behave exactly as before.  Shards are ordered by
    (locality, smallest channel), one deterministic global order the
    batch merge and the live daemon enumerate identically;
    with a single locality this reduces to the historical
    smallest-channel order.
    """
    if resolve_locality_map(traces) is not None:
        shards: List[List[RadioTrace]] = []
        by_key: Dict[int, List[RadioTrace]] = defaultdict(list)
        for trace in traces:
            by_key[cast(int, trace.building_id)].append(trace)
        for key in sorted(by_key):
            shards.extend(_partition_by_channel(by_key[key]))
        return shards
    return _partition_by_channel(traces)


def _partition_by_channel(
    traces: Sequence[RadioTrace],
) -> List[List[RadioTrace]]:
    """Channel-component shards (ordered by smallest channel)."""
    # Union-find over channels.
    parent: Dict[int, int] = {}

    def find(c: int) -> int:
        root = c
        while parent[root] != root:
            root = parent[root]
        while parent[c] != root:
            parent[c], c = root, parent[c]
        return root

    trace_channels: List[frozenset] = []
    for trace in traces:
        channels = {trace.channel}
        declared = trace.channel_set
        if declared is not None:
            # File-backed streams carry the writer's channel index in the
            # metadata sidecar; partitioning off it keeps the partition a
            # metadata-only pass instead of forcing a full decode before
            # the merge can even start.
            channels.update(declared)
        else:
            channels.update(map(_CHANNEL, trace.records))
        trace_channels.append(frozenset(channels))
        # Union-by-min makes the final roots order-independent, but the
        # sorted walk keeps every intermediate parent table identical
        # across runs too — the structure is deterministic by inspection,
        # not by argument.
        first = min(channels)
        for c in sorted(channels):
            parent.setdefault(c, c)
            ra, rb = find(first), find(c)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)

    shards: Dict[int, List[RadioTrace]] = defaultdict(list)
    for trace, channels in zip(traces, trace_channels):
        shards[find(min(channels))].append(trace)
    return [shards[root] for root in sorted(shards)]


class _TraceCursor:
    """Incremental record access for the merge hot loop.

    A cursor is ``buffer`` (the records already in memory, possibly
    none) plus an optional ``produce()`` that returns the record at
    ``len(buffer)``, where a cursor reading in order asks for it, or
    ``None`` at end of stream.  A trace's cursor is its buffer and its
    ``ensure_index``: a trace reading a source decodes on demand, so the
    merge pulls batches as its heap advances instead of draining every
    trace before the first jframe.  The service daemon starts from an
    empty buffer and binds ``produce`` to its feed.

    ``counted`` is how many of this cursor's records ``records_in``
    already includes; a cursor is counted when it is exhausted.  A
    cursor nothing merges (a quarantined radio's) is read by
    :meth:`skip_rest`, which counts as it reads and keeps ``valid``, the
    VALID records among them.

    ``produce`` is bound to a live source (a decoder, a feed), so it is
    not pickled; whoever restores an engine rebinds it.
    """

    __slots__ = ("buffer", "produce", "counted", "valid")

    def __init__(self, trace: RadioTrace) -> None:
        buffer = self.buffer = trace.replay_buffer
        ensure = trace.ensure_index

        def produce() -> Optional[TraceRecord]:
            index = len(buffer)
            return buffer[index] if ensure(index) else None

        self.produce: Optional[Callable[[], Optional[TraceRecord]]] = produce
        self.counted = self.valid = 0

    def __getstate__(self) -> Tuple[List[TraceRecord], int, int]:
        return self.buffer, self.counted, self.valid

    def __setstate__(self, state: Tuple[List[TraceRecord], int, int]) -> None:
        self.buffer, self.counted, self.valid = state
        self.produce = None

    def get(self, index: int) -> Optional[TraceRecord]:
        if index < len(self.buffer):
            return self.buffer[index]
        return self.produce() if self.produce is not None else None

    def skip_rest(self) -> None:
        """Read on to the end of stream from ``counted``, keeping no
        record.  The counts follow every read, so a source that raises
        leaves them exact and a second call goes on from there."""
        valid = RecordKind.VALID
        record = self.get(self.counted)
        while record is not None:
            self.counted += 1
            if record.kind is valid:
                self.valid += 1
            record = self.get(self.counted)


class _MergeEngine:
    """Streams one channel shard's records into time-ordered jframes.

    This is the seed single-heap merge algorithm restricted to one shard,
    made resumable: groups are finalized when the merge clock passes
    their search-window deadline and emitted through a small reorder
    heap once no later-finalized group can precede them.  The emission
    watermark trails the merge clock by twice the search window, which
    dominates both the window lag itself and any jitter introduced by
    resynchronization corrections (microseconds against a 10 ms window).

    Synchronized streaming traces are consumed *incrementally* through
    :class:`_TraceCursor`: the heap pulls the next record (and, behind
    it, the next decoded batch) only as the merge clock reaches it, so
    decode and merge overlap instead of serializing.

    Each pop reads that radio's successor before anything else happens,
    so the processing order is a pure function of the per-radio record
    sequences — never of how many records a call merges or where a
    restored engine picked up.  Between any two :meth:`advance` calls
    the whole engine pickles (cursors drop their ``produce``; see
    :class:`_TraceCursor`) and a restored one continues bit-identically.

    ``traces`` are the shard's synchronized radios only; the
    coordinator counts the quarantined ones.  ``valid_read`` counts the
    VALID records merged (Table 1's error share), apart from
    :class:`UnifyStats`, whose ``repr`` the determinism digests pin.
    """

    def __init__(
        self,
        unifier: "Unifier",
        traces: Sequence[RadioTrace],
        bootstrap: BootstrapResult,
    ) -> None:
        self.unifier = unifier
        self.stats = UnifyStats()
        self.valid_read = 0
        self.tracks: Dict[int, ClockTrack] = {}
        self.cursors: Dict[int, _TraceCursor] = {}
        offsets = bootstrap.offsets_us
        for trace in traces:
            self.tracks[trace.radio_id] = ClockTrack(
                radio_id=trace.radio_id,
                offset_us=offsets[trace.radio_id],
                compensate_skew=unifier.compensate_skew,
            )
            self.cursors[trace.radio_id] = _TraceCursor(trace)
        # Open-group state (channel-local by construction of the shard).
        self.open_by_key: Dict[ReferenceKey, _Group] = {}
        self.open_by_channel: Dict[int, deque] = defaultdict(deque)
        self.open_order: deque = deque()
        #: Emission watermark: every jframe with ``timestamp_us`` at or
        #: below this has been emitted.  Advances with the reorder-heap
        #: drain; ``inf`` once the shard is fully drained.
        self.watermark_us: float = -_INF
        # --- continuation state of :meth:`advance` ---
        #: One entry per radio with records left (layout: see the loop).
        self._heap: List[tuple] = []
        #: Cursors whose first record has been read (pushed, or found
        #: absent): where a priming pass cut short by its source resumes.
        self._primed = 0
        #: Heap pushes so far — the tiebreak, continued across calls.
        self._counter = 0
        #: Finalized jframes awaiting ordered emission: (ts, seq, jframe).
        self._reorder: List[Tuple[int, int, JFrame]] = []
        #: Merge clock at which the oldest open group goes stale.
        self._oldest_deadline = _INF
        #: Jframes emitted by a call that a failing source cut short.
        self._emitted: List[JFrame] = []
        #: True once every record is merged and every jframe emitted.
        self.finished = False

    # --- the merge hot loop ------------------------------------------------

    def advance(self, max_records: int) -> List[JFrame]:
        """Merge up to ``max_records`` records.

        Returns the jframes whose emission watermark passed, in
        (timestamp, finalization) order; the call that merges the last
        record also finalizes the open groups and sets :attr:`finished`.
        If a source raises, the engine stays exactly as it was before
        the record whose successor could not be read — nothing merged so
        far is lost — and the next call resumes there.
        """
        unifier = self.unifier
        stats = self.stats
        search_window = unifier.search_window_us
        gap_limit = unifier.instance_gap_us
        corrupt_attach = CORRUPT_ATTACH_US
        phy_attach = PHY_ATTACH_US
        # Emission watermark: a future-finalized group's timestamp can
        # precede the merge clock by (search window + attachment window +
        # resync jitter).  The attachment windows enter explicitly so the
        # bound holds even when the search window is configured smaller
        # than them; the extra search window of slack dominates resync
        # corrections (instance-gap scale, which itself scales with the
        # window).
        emit_lag = 2.0 * search_window + max(corrupt_attach, phy_attach)

        open_by_key = self.open_by_key
        open_by_channel = self.open_by_channel
        open_order = self.open_order
        finalize_stale = self._finalize_stale
        find_attachable = self._find_attachable
        parse_frame = parse_record_frame
        parse_cache_get = _PARSE_CACHE.get
        kind_valid = RecordKind.VALID
        kind_corrupt = RecordKind.CORRUPT
        heappush, heappop = heapq.heappush, heapq.heappop
        heapreplace = heapq.heapreplace

        # One entry per radio: (est universal, tiebreak, radio, record,
        # next index, track generation at push time, track, cursor).  The
        # generation lets the pop skip recomputing ``universal_us`` when
        # no resync touched the track since the push — the common case by
        # far.  The trailing track/cursor references sit past the unique
        # tiebreak, so tuple comparison never reaches them; carrying them
        # in the entry saves two per-record dict lookups.
        heap = self._heap
        reorder = self._reorder
        emitted = self._emitted
        # Scalars are bound to locals for the loop and written back in
        # the ``finally``, so a raising source leaves them current.
        counter = self._counter
        oldest_deadline = self._oldest_deadline
        valid_read = self.valid_read
        try:
            if self._primed < len(self.cursors):
                for radio_id, cursor in islice(
                    self.cursors.items(), self._primed, None
                ):
                    first = cursor.get(0)
                    if first is not None:
                        track = self.tracks[radio_id]
                        heappush(
                            heap,
                            (
                                track.universal_us(first.timestamp_us),
                                counter,
                                radio_id,
                                first,
                                1,
                                track.generation,
                                track,
                                cursor,
                            ),
                        )
                        counter += 1
                    self._primed += 1

            while heap and max_records:
                max_records -= 1
                # Read the successor *before* committing the pop: if its
                # source raises, this record is still on the heap.  Pop
                # order is unchanged — (estimate, tiebreak) keys are
                # unique — and heapreplace is one sift instead of two.
                est, _, radio_id, record, idx, gen, track, cursor = heap[0]
                # _TraceCursor.get, inlined: one attribute walk per record
                # beats a method call at building scale.
                buffer = cursor.buffer
                if idx < len(buffer):
                    nxt = buffer[idx]
                else:
                    produce = cursor.produce
                    nxt = produce() if produce is not None else None
                if nxt is not None:
                    # ClockTrack.universal_us, inlined verbatim (the resync
                    # paths still go through the method): one method call
                    # per record is real money at 1.5M records.  Computed
                    # from the track state *before* this pop can resync it.
                    local = nxt.timestamp_us
                    heapreplace(
                        heap,
                        (
                            local
                            + track.offset_us
                            + (
                                track.skew_ppm
                                * 1e-6
                                * (local - track.anchor_local_us)
                                if track.compensate_skew
                                else 0.0
                            ),
                            counter,
                            radio_id,
                            nxt,
                            idx + 1,
                            track.generation,
                            track,
                            cursor,
                        ),
                    )
                    counter += 1
                else:
                    heappop(heap)
                    stats.records_in += idx - cursor.counted
                    cursor.counted = idx
                # Recompute with the current (possibly resynced) track state;
                # skip when the push-time estimate is still exact.
                if gen == track.generation:
                    universal = est
                else:
                    universal = track.universal_us(record.timestamp_us)

                if universal > oldest_deadline:
                    oldest_deadline = finalize_stale(universal, reorder)
                    bound = universal - emit_lag
                    if bound > self.watermark_us:
                        self.watermark_us = bound
                    while reorder and reorder[0][0] <= bound:
                        emitted.append(heappop(reorder)[2])

                # --- placement (inlined: once per record) -----------------
                # A group's columns grow by three appends; no per-record
                # object is built.
                channel = record.channel
                kind = record.kind
                if kind is kind_valid:
                    valid_read += 1
                    snap = record.snap
                    frame_len = record.frame_len
                    key = (channel, frame_len, record.fcs, snap)
                    group = open_by_key.get(key)
                    if (
                        group is not None
                        and radio_id not in group.radios
                        and universal - group.first_universal <= gap_limit
                    ):
                        group.radio_ids.append(radio_id)
                        group.universal_us.append(universal)
                        group.records.append(record)
                        group.radios.add(radio_id)
                        continue
                    # Opening or upgrading a group is the one place a
                    # capture is parsed: a joining capture's frame is its
                    # group's, since the key holds (snap, frame_len).
                    # parse_record_frame's hit path, inlined: a valid
                    # record always satisfies its kind/snap preconditions,
                    # so a bare cache probe replaces the call for the
                    # common repeat (control frames, duplicate receptions).
                    cached = parse_cache_get((snap, frame_len), False)
                    frame = (
                        cached if cached is not False else parse_frame(record)
                    )
                    transmitter = None
                    if frame is not None:
                        # CTS-to-self carries the sender in RA; a plain
                        # receiver cannot know which it is, so RA doubles as
                        # the hint.
                        transmitter = frame.transmitter or frame.addr1
                    # A valid capture may complete a group opened by a corrupt
                    # or PHY-error observation of the same transmission.
                    upgrade = find_attachable(
                        universal, radio_id, open_by_channel[channel],
                        corrupt_attach, need_headless=True,
                    )
                    if upgrade is not None:
                        upgrade.add(radio_id, universal, record)
                        upgrade.key = key
                        upgrade.rep_record = record
                        upgrade.rep_frame = frame
                        upgrade.transmitter = transmitter
                        open_by_key[key] = upgrade
                        continue
                    group = _Group(
                        radio_id, universal, record, channel, key, record,
                        transmitter,
                    )
                    group.rep_frame = frame
                    open_by_key[key] = group
                elif kind is kind_corrupt:
                    transmitter = transmitter_from_corrupt_bytes(record.snap)
                    existing = find_attachable(
                        universal, radio_id, open_by_channel[channel],
                        corrupt_attach, transmitter=transmitter,
                    )
                    if existing is not None:
                        existing.add(radio_id, universal, record)
                        continue
                    group = _Group(
                        radio_id, universal, record, channel, None, None,
                        transmitter,
                    )
                else:  # PHY_ERROR
                    # _find_attachable, inlined for its hottest caller (PHY
                    # errors are half the fleet's records): the transmitter
                    # and headless filters are no-ops here, so the body is
                    # just the windowed best-gap scan.  Keep semantics in
                    # lockstep with _find_attachable.
                    best = None
                    best_gap = phy_attach
                    for g in reversed(open_by_channel[channel]):
                        gap = universal - g.first_universal
                        if gap > phy_attach:
                            break  # creation order: older only further away
                        if gap < 0.0:
                            gap = -gap
                            if gap > phy_attach:
                                continue
                        if radio_id in g.radios:
                            continue
                        if gap <= best_gap:
                            best = g
                            best_gap = gap
                    if best is not None:
                        best.radio_ids.append(radio_id)
                        best.universal_us.append(universal)
                        best.records.append(record)
                        best.radios.add(radio_id)
                        continue
                    group = _Group(
                        radio_id, universal, record, channel, None, None, None
                    )

                open_by_channel[channel].append(group)
                open_order.append(group)
                # By value, not identity: a pickle round trip rebuilds the
                # float, and ``is _INF`` would silently stop re-arming the
                # staleness deadline on a restored engine.
                if oldest_deadline == _INF:
                    oldest_deadline = group.first_universal + search_window
        finally:
            self._counter = counter
            self._oldest_deadline = oldest_deadline
            self.valid_read = valid_read

        if not heap:
            finalize_stale(_INF, reorder)
            while reorder:
                emitted.append(heappop(reorder)[2])
            self.watermark_us = _INF
            self.finished = True
        self._emitted = []
        return emitted

    def take_parked(self) -> List[JFrame]:
        """Jframes emitted by an :meth:`advance` call its source cut short.

        :attr:`watermark_us` has already moved past them, so the
        coordinator queues them before any release can trust it.
        """
        parked, self._emitted = self._emitted, []
        return parked

    # --- placement helpers -------------------------------------------------

    def _find_attachable(
        self,
        universal: float,
        radio_id: int,
        channel_groups: deque,
        window_us: float,
        transmitter: Optional[MacAddress] = None,
        need_headless: bool = False,
    ) -> Optional[_Group]:
        """Scan open groups on this channel for a time/transmitter match.

        Corrupt captures "simply match on the transmitter's address field"
        when it is readable; address-less damage falls back to temporal
        proximity.  ``need_headless`` restricts the search to groups without
        a valid representative (used when a valid capture adopts orphans).
        """
        best: Optional[_Group] = None
        best_gap = window_us
        for group in reversed(channel_groups):
            gap = universal - group.first_universal
            if gap > window_us:
                break  # deque is in creation order; older ones only further
            if gap < 0.0:
                gap = -gap
                if gap > window_us:
                    continue
            if radio_id in group.radios:
                continue
            if need_headless and group.rep_record is not None:
                continue
            if transmitter is not None and group.transmitter is not None:
                if transmitter != group.transmitter:
                    continue
            if gap <= best_gap:
                best = group
                best_gap = gap
        return best

    # --- finalization ------------------------------------------------------

    def _finalize_stale(
        self,
        now_universal: float,
        reorder: List[Tuple[int, int, JFrame]],
    ) -> float:
        """Finalize groups older than the search window.

        Returns the merge-clock deadline at which the (new) oldest open
        group goes stale, so the hot loop can gate on a float compare.
        """
        open_order = self.open_order
        open_by_channel = self.open_by_channel
        open_by_key = self.open_by_key
        window = self.unifier.search_window_us
        stats = self.stats
        while open_order and (
            now_universal - open_order[0].first_universal > window
        ):
            group = open_order.popleft()
            # A group joins open_order and its channel's deque together
            # and leaves both only here, oldest first: it heads both.
            open_by_channel[group.channel].popleft()
            if group.key is not None and open_by_key.get(group.key) is group:
                del open_by_key[group.key]
            jframe = self._finalize(group)
            heapq.heappush(
                reorder, (jframe.timestamp_us, stats.jframes, jframe)
            )
        if open_order:
            return open_order[0].first_universal + window
        return _INF

    def _finalize(self, group: _Group) -> JFrame:
        unifier = self.unifier
        stats = self.stats
        # Timing (median, dispersion, resync) uses only FCS-good instances:
        # corrupt and PHY-error attachments identify *which* radios saw the
        # event but their timestamps are not synchronization-grade.
        # A group holds a VALID capture exactly when it has a
        # representative; without one every instance times it.
        rep = group.rep_record
        records = group.records
        times = group.universal_us
        # Which instances time the jframe; None means all of them.
        timing: Optional[List[bool]] = None
        if rep is not None and len(records) > 1:
            kind_valid = RecordKind.VALID
            kinds = list(map(_KIND, records))
            if countOf(kinds, kind_valid) < len(kinds):
                timing = list(map(is_, kinds, repeat(kind_valid)))
                times = list(compress(times, timing))
        n_timing = len(times)
        if n_timing == 1:
            timestamp = times[0]
            dispersion = 0.0
        else:
            times = sorted(times)
            mid = n_timing // 2
            if unifier.use_median_timestamp:
                if n_timing % 2:
                    timestamp = times[mid]
                else:
                    timestamp = 0.5 * (times[mid - 1] + times[mid])
            else:
                timestamp = sum(times) / n_timing
            dispersion = times[-1] - times[0]

        if rep is not None:
            kind = JFrameKind.VALID
            frame = group.rep_frame
            frame_len, fcs, rate = rep.frame_len, rep.fcs, rep.rate_mbps
            duration = rep.duration_us
        else:
            frame = None
            any_record = records[0]
            if RecordKind.CORRUPT in map(_KIND, records):
                kind = JFrameKind.CORRUPT
            else:
                kind = JFrameKind.PHY_ERROR
            frame_len, fcs, rate = (
                any_record.frame_len,
                any_record.fcs,
                any_record.rate_mbps,
            )
            duration = any_record.duration_us

        # Resynchronize contributing clocks — unique frames only, gated on
        # the dispersion threshold (Section 4.2's accuracy/overhead trade);
        # "unique" is the bootstrap's own reference verdict.
        if (
            rep is not None
            and n_timing >= 2
            and dispersion >= unifier.resync_threshold_us
            and reference_verdict(rep)
        ):
            tracks = self.tracks
            radio_ids: Iterable[int] = group.radio_ids
            locals_us: Iterable[int] = map(_TIMESTAMP, records)
            if timing is not None:
                radio_ids = compress(radio_ids, timing)
                locals_us = compress(locals_us, timing)
            for radio_id, local_us in zip(radio_ids, locals_us):
                track = tracks.get(radio_id)
                if track is not None:
                    track.resync(local_us, timestamp)
                    stats.resyncs += 1

        stats.jframes += 1
        stats.instances_unified += len(records)
        if kind is JFrameKind.VALID:
            stats.valid_jframes += 1
        elif kind is JFrameKind.CORRUPT:
            stats.corrupt_jframes += 1
        else:
            stats.phy_error_jframes += 1

        return JFrame(
            timestamp_us=int(round(timestamp)),
            kind=kind,
            channel=group.channel,
            radio_ids=group.radio_ids,
            universal_us=group.universal_us,
            records=records,
            frame=frame,
            frame_len=frame_len,
            fcs=fcs,
            rate_mbps=rate,
            duration_us=duration,
            dispersion_us=float(dispersion),
            transmitter=group.transmitter
            if group.transmitter is not None
            else (frame.transmitter if frame is not None else None),
        )


class UnifyStream:
    """The shard coordinator: one unification in progress.

    Holds one :class:`_MergeEngine` per shard with a synchronized radio
    (a shard without one can never emit), a FIFO per engine of jframes
    emitted but not yet released, the quarantined radios' cursors and
    the input-trace order tracks are reported in.  Nothing of a
    quarantined radio is merged: once every engine has finished, a step
    reads its cursor to the end, counting and keeping nothing.  Between
    two :meth:`step` calls the whole coordinator pickles (cursors drop
    their ``produce``; see :class:`_TraceCursor`).

    Iterating drains it, :data:`_BATCH_SLICE` records a step.
    ``stats`` and ``tracks`` aggregate across the shards; they are
    complete once the stream is finished (read mid-stream they give
    the progress so far, which is exactly what a live monitor wants).
    """

    def __init__(
        self,
        unifier: "Unifier",
        shards: Sequence[Sequence[RadioTrace]],
        bootstrap: BootstrapResult,
        track_order: Sequence[int],
    ) -> None:
        self.unifier = unifier
        self.engines: List[_MergeEngine] = []
        offsets = bootstrap.offsets_us
        self.skipped: List[Tuple[int, _TraceCursor]] = []
        self._skipped_read = False
        for shard in shards:
            synchronized = []
            for trace in shard:
                if trace.radio_id in offsets:
                    synchronized.append(trace)
                else:
                    self.skipped.append((trace.radio_id, _TraceCursor(trace)))
            if synchronized:
                self.engines.append(
                    _MergeEngine(unifier, synchronized, bootstrap)
                )
        self.fifos: List[Deque[JFrame]] = [deque() for _ in self.engines]
        self._track_order = list(track_order)

    def __iter__(self) -> Iterator[JFrame]:
        while not self.finished:
            yield from self.step(_BATCH_SLICE)

    @property
    def finished(self) -> bool:
        """True once every record is read and every jframe released."""
        return (
            self._skipped_read
            and all(e.finished for e in self.engines)
            and not any(self.fifos)
        )

    def step(self, max_records: int) -> List[JFrame]:
        """Merge up to ``max_records`` records on the laggard shard.

        The laggard is the unfinished shard with the lowest emission
        watermark (ties: lowest shard index): by the release rule,
        every queued jframe is waiting for it.  Returns the jframes now
        provably next, in (timestamp, shard) order — none unless the
        call emitted a jframe or finished its shard.  With every shard
        finished, the call reads the quarantined radios instead.  The
        choice reads only pickled state, so a restored coordinator
        continues the identical schedule.  If a source raises, the
        call's emissions are queued first; the next call resumes where
        it stopped.
        """
        engines = self.engines
        laggard = -1
        for si, engine in enumerate(engines):
            if not engine.finished and (
                laggard < 0
                or engine.watermark_us < engines[laggard].watermark_us
            ):
                laggard = si
        if laggard < 0:
            if not self._skipped_read:
                for _, cursor in self.skipped:
                    cursor.skip_rest()
                self._skipped_read = True
            return self._release()
        engine, fifo = engines[laggard], self.fifos[laggard]
        try:
            emitted = engine.advance(max_records)
        except BaseException:
            fifo.extend(engine.take_parked())
            raise
        if not emitted and not engine.finished:
            return []
        fifo.extend(emitted)
        return self._release()

    def _release(self) -> List[JFrame]:
        """Dequeue every jframe no shard can still precede.

        A shard with an empty FIFO emits only jframes later than its
        watermark, so the lowest such watermark is the frontier: FIFO
        heads at or below it come out through a heap keyed
        (timestamp, shard index), and a FIFO that empties lowers the
        frontier to its own shard's watermark.  O(shards) per call plus
        O(log shards) per jframe.
        """
        engines, fifos = self.engines, self.fifos
        frontier = _INF
        heads: List[Tuple[int, int]] = []
        for si, fifo in enumerate(fifos):
            if fifo:
                heads.append((fifo[0].timestamp_us, si))
            else:
                frontier = min(frontier, engines[si].watermark_us)
        heapq.heapify(heads)
        released: List[JFrame] = []
        while heads and heads[0][0] <= frontier:
            si = heads[0][1]
            fifo = fifos[si]
            released.append(fifo.popleft())
            if fifo:
                heapq.heapreplace(heads, (fifo[0].timestamp_us, si))
            else:
                heapq.heappop(heads)
                frontier = min(frontier, engines[si].watermark_us)
        return released

    def read_counts(self) -> Dict[int, int]:
        """Records read from each radio: a synchronized one's heap entry's
        next index, or off the heap its cursor's ``counted``."""
        reads = {radio_id: cursor.counted for radio_id, cursor in self.skipped}
        for engine in self.engines:
            for radio_id, cursor in engine.cursors.items():
                reads[radio_id] = cursor.counted
            reads.update((entry[2], entry[4]) for entry in engine._heap)
        return reads

    @property
    def records_read(self) -> int:
        """The synchronized radios' read counts: one heap push per
        record read.  Quarantined radios are read after the last push,
        so every count a caller schedules by is one a merge passes."""
        return sum(engine._counter for engine in self.engines)

    @property
    def valid_read(self) -> int:
        """VALID records read from every radio (Table 1's error share)."""
        return sum(engine.valid_read for engine in self.engines) + sum(
            cursor.valid for _, cursor in self.skipped
        )

    @property
    def radios(self) -> int:
        """Input traces, quarantined ones included (Table 1's radios)."""
        return len(self._track_order)

    @property
    def stats(self) -> UnifyStats:
        merged = UnifyStats()
        skipped = sum(cursor.counted for _, cursor in self.skipped)
        merged.records_in = merged.records_skipped_unsynchronized = skipped
        for engine in self.engines:
            merged.merge(engine.stats)
        return merged

    @property
    def tracks(self) -> Dict[int, ClockTrack]:
        """Every shard's clock tracks, in input-trace order."""
        combined: Dict[int, ClockTrack] = {}
        for engine in self.engines:
            combined.update(engine.tracks)
        return {
            rid: combined[rid]
            for rid in self._track_order
            if rid in combined
        }

    def drain(self) -> UnificationResult:
        """Exhaust the stream into the batch result shape."""
        return UnificationResult(
            jframes=list(self), tracks=self.tracks, stats=self.stats
        )


class Unifier:
    """Single-pass trace merger (batch and streaming APIs)."""

    def __init__(
        self,
        search_window_us: int = DEFAULT_SEARCH_WINDOW_US,
        resync_threshold_us: float = DEFAULT_RESYNC_THRESHOLD_US,
        compensate_skew: bool = True,
        use_median_timestamp: bool = True,
    ) -> None:
        if search_window_us <= 0:
            raise ValueError("search window must be positive")
        self.search_window_us = search_window_us
        self.resync_threshold_us = resync_threshold_us
        self.compensate_skew = compensate_skew
        self.use_median_timestamp = use_median_timestamp
        # Instances of one transmission cluster within clock error; the
        # paper pops candidates only "until the timestamp of the next
        # instance differs by a significant amount".  Joining a group
        # therefore demands temporal proximity much tighter than the search
        # window — otherwise content-identical frames (ACKs to one station,
        # milliseconds apart) merge across distinct transmissions.  Scaling
        # with the window reproduces the paper's warning that overly large
        # windows become "dangerous".
        self.instance_gap_us = max(50.0, search_window_us / 50.0)

    # --- public API --------------------------------------------------------

    def stream_unify(
        self, traces: Sequence[RadioTrace], bootstrap: BootstrapResult
    ) -> UnifyStream:
        """Begin a lazy unification over channel shards.

        Returns a :class:`UnifyStream`: iterate it for globally
        time-ordered jframes; read ``.stats`` / ``.tracks`` when done.
        Raises ``ValueError`` if two traces carry one radio id.
        """
        radio_ids = [t.radio_id for t in traces]
        repeated = [r for r, n in Counter(radio_ids).items() if n > 1]
        if repeated:
            raise ValueError(f"two traces carry radio id {repeated[0]}")
        return UnifyStream(
            self, partition_traces(traces), bootstrap, radio_ids
        )

    def unify(
        self, traces: Sequence[RadioTrace], bootstrap: BootstrapResult
    ) -> UnificationResult:
        """Merge all traces into a time-ordered list of jframes (batch)."""
        return self.stream_unify(traces, bootstrap).drain()
