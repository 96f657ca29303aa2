"""Fault injection between simulated capture and trace files.

The :class:`~repro.sim.scenario.FaultConfig` component describes damage
on the capture path — corruption on the way to disk, files cut short,
radios going dark, clocks stepping — and this module applies it, in two
stages matching where real damage happens:

* **record-level** (:func:`inject_record_faults`) — faults that change
  *what the radio captured*: blackout/reboot holes and clock jumps.
  Applied in memory, so both file-backed and in-memory pipeline runs can
  use them;
* **byte-level** (:func:`write_faulty_traces`) — faults that damage *the
  bytes on disk*: header corruption and truncated files.  Applied while
  writing, producing trace files whose damage exercises the tolerant
  decoder's resynchronization and truncated-tail paths.

Everything drawn is deterministic per scenario seed via the dedicated
``faults`` spawn-keyed stream (PR 4 conventions): enabling a fault cannot
reshuffle workload, placement or clock draws, and an all-off
``FaultConfig`` makes both functions exact no-ops — the written traces
decode to records identical to :func:`repro.jtrace.io.write_traces`
output.

The returned :class:`FaultPlan` records exactly what was injected
(which radios, which records, where the cuts landed) so tests can assert
the pipeline's :class:`~repro.core.faults.HealthReport` against ground
truth rather than eyeballing counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence, Set, Tuple

from ..jtrace.io import RadioTrace, compress_trace, write_sidecar
from ..jtrace.records import _HEADER, record_to_bytes
from .scenario import FaultConfig, ScenarioConfig

#: Sub-stream indices under the ``faults`` spawn key — one per fault
#: type, so enabling one fault never reshuffles another's draws.
_CORRUPT_STREAM = 1
_TRUNCATE_STREAM = 2
_BLACKOUT_STREAM = 3
_JUMP_STREAM = 4

#: Where a truncated file is cut: this fraction into its decompressed bytes.
TRUNCATE_AT_FRACTION = 0.8
#: A blackout's length as a fraction of the radio's trace span.
BLACKOUT_DURATION_FRACTION = 0.2
#: How far a jumping capture clock steps, and where in its span.
CLOCK_JUMP_US = 2_000_000
CLOCK_JUMP_AT_FRACTION = 0.5

#: Byte offsets inside the packed record header (see ``records._HEADER``).
_KIND_BYTE_OFFSET = 10
_SNAP_LEN_OFFSET = 26


@dataclass
class FaultPlan:
    """Ground truth of everything the injector did to one trace set."""

    #: radio -> record indices whose on-disk header bytes were smashed.
    corrupted_records: Dict[int, List[int]] = field(default_factory=dict)
    #: radios whose file was cut mid-record.
    truncated: Set[int] = field(default_factory=set)
    #: radio -> (start_us, end_us) local-time hole (records dropped).
    blackouts: Dict[int, Tuple[int, int]] = field(default_factory=dict)
    #: radio -> (cut_timestamp_us, jump_us): records at/after the cut
    #: moved by jump_us.
    clock_jumps: Dict[int, Tuple[int, int]] = field(default_factory=dict)
    #: radio -> number of records dropped by its blackout.
    blackout_dropped: Dict[int, int] = field(default_factory=dict)

    @property
    def any(self) -> bool:
        return bool(
            self.corrupted_records
            or self.truncated
            or self.blackouts
            or self.clock_jumps
        )

    def summary(self) -> str:
        return (
            f"corrupted_radios={len(self.corrupted_records)} "
            f"corrupted_records={sum(len(v) for v in self.corrupted_records.values())} "
            f"truncated={sorted(self.truncated)} "
            f"blackouts={sorted(self.blackouts)} "
            f"clock_jumps={sorted(self.clock_jumps)}"
        )


def _pick_radios(config: ScenarioConfig, stream: int, count: int,
                 candidates: Sequence[int]) -> List[int]:
    """Deterministically choose ``count`` victim radios for one fault type."""
    if count <= 0 or not candidates:
        return []
    rng = config.streams().entity("faults", stream)
    count = min(count, len(candidates))
    picked = rng.choice(len(candidates), size=count, replace=False)
    return sorted(candidates[i] for i in picked)


def inject_record_faults(
    traces: Sequence[RadioTrace], config: ScenarioConfig
) -> Tuple[List[RadioTrace], FaultPlan]:
    """Apply capture-content faults (blackouts, clock jumps) in memory.

    Input traces are never mutated; affected traces are rebuilt.  With an
    all-off :class:`~repro.sim.scenario.FaultConfig` the input list is
    returned unchanged (same objects) and the plan is empty.
    """
    fc: FaultConfig = config.faults
    plan = FaultPlan()
    if not fc.blackout_radios and not fc.clock_jump_radios:
        return list(traces), plan

    candidates = sorted(t.radio_id for t in traces if len(t))
    blackout_set = set(
        _pick_radios(config, _BLACKOUT_STREAM, fc.blackout_radios, candidates)
    )
    jump_set = set(
        _pick_radios(config, _JUMP_STREAM, fc.clock_jump_radios, candidates)
    )

    out: List[RadioTrace] = []
    for trace in traces:
        records = trace.records
        radio = trace.radio_id
        touched = False
        if radio in blackout_set and records:
            first = records[0].timestamp_us
            span = records[-1].timestamp_us - first
            start = first + int(fc.blackout_start_fraction * span)
            end = start + int(BLACKOUT_DURATION_FRACTION * span)
            kept = [
                r for r in records if not (start <= r.timestamp_us < end)
            ]
            plan.blackouts[radio] = (start, end)
            plan.blackout_dropped[radio] = len(records) - len(kept)
            records = kept
            touched = True
        if radio in jump_set and records:
            first = records[0].timestamp_us
            span = records[-1].timestamp_us - first
            cut = first + int(CLOCK_JUMP_AT_FRACTION * span)
            records = [
                r._replace(timestamp_us=r.timestamp_us + CLOCK_JUMP_US)
                if r.timestamp_us >= cut
                else r
                for r in records
            ]
            plan.clock_jumps[radio] = (cut, CLOCK_JUMP_US)
            touched = True
        out.append(
            RadioTrace(
                radio, trace.channel, records, building_id=trace.building_id
            )
            if touched
            else trace
        )
    return out, plan


def _smash_header(encoded: bytearray) -> None:
    """Make a record's header detectably implausible (and mis-framed)."""
    encoded[_KIND_BYTE_OFFSET] = 0xEE               # invalid RecordKind
    encoded[_SNAP_LEN_OFFSET] = 0xFF                # absurd snap_len ->
    encoded[_SNAP_LEN_OFFSET + 1] = 0xFF            # framing is lost too


def write_faulty_traces(
    traces: Sequence[RadioTrace], directory: Path, config: ScenarioConfig
) -> FaultPlan:
    """Write traces to ``directory`` with the configured faults injected.

    Record-level faults (blackouts, clock jumps) are applied first; then
    each trace is encoded and damaged at the byte level: every record of
    every radio independently corrupts its header with probability
    ``corrupt_rate`` (drawn from the per-radio ``faults`` sub-stream, so
    the damage pattern is stable under fleet growth), and the chosen
    ``truncate_radios`` victims are cut at :data:`TRUNCATE_AT_FRACTION`,
    mid-record in the decompressed stream: a clean gzip whose payload
    just stops.

    The metadata sidecar, written by the same
    :func:`~repro.jtrace.io.write_sidecar` clean traces use, always
    indexes the *pre-damage* records — the count, span and channels the
    radio believed it wrote — which is what makes strict reads of a
    damaged trace fail loudly, tolerant reads measurable, and a damaged
    header stamped outside that span or those channels detectable.

    With an all-off config the written traces decode to exactly what
    :func:`repro.jtrace.io.write_traces` would have produced.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    fc: FaultConfig = config.faults

    faulted, plan = inject_record_faults(traces, config)
    candidates = sorted(t.radio_id for t in faulted if len(t))
    truncate_targets = set(
        _pick_radios(config, _TRUNCATE_STREAM, fc.truncate_radios, candidates)
    )

    for trace in faulted:
        radio = trace.radio_id
        records = trace.records
        encoded = [bytearray(record_to_bytes(r)) for r in records]

        if fc.corrupt_rate > 0 and encoded:
            # Per-radio sub-stream: damage on radio 7 is the same whether
            # the fleet has 10 radios or 200.
            rng = config.streams().entity(
                "faults", _CORRUPT_STREAM * 1_000_000 + radio
            )
            draws = rng.random(len(encoded))
            hit = [i for i, p in enumerate(draws) if p < fc.corrupt_rate]
            for i in hit:
                _smash_header(encoded[i])
            if hit:
                plan.corrupted_records[radio] = hit

        blob = b"".join(bytes(e) for e in encoded)
        data_path = directory / f"radio_{radio:04d}.jtr.gz"
        if radio in truncate_targets and blob:
            # Cut inside the record that spans the fraction point, so the
            # decompressed stream ends with a partial record.
            cut = int(TRUNCATE_AT_FRACTION * len(blob))
            boundary = 0
            for e in encoded:
                if boundary + len(e) > cut:
                    cut = boundary + max(1, min(len(e) - 1, _HEADER.size // 2))
                    break
                boundary += len(e)
            else:
                cut = max(1, len(blob) - 1)
            blob = blob[:cut]
            plan.truncated.add(radio)
        data_path.write_bytes(compress_trace(blob))
        write_sidecar(trace, data_path)
    return plan
