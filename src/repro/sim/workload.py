"""Workload generation: who transfers what, when.

Produces the flow schedule the TCP substrate executes.  Flow archetypes
follow the paper's oracle workload (Section 6): web browsing (short,
bursty, download-heavy), interactive ssh (long-lived, thin, small packets)
and scp bulk copies (long flows of full-size segments, both directions).
Under diurnal shaping (Figure 8) arrivals thin out overnight; bursts
preferentially start on hour/half-hour boundaries, echoing the paper's
observation that "many of the bursts start on an hour or half-hour time
boundary, likely indicating laptop usage during meetings".
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .scenario import ScenarioConfig


class FlowArchetype(enum.Enum):
    WEB = "web"
    SSH = "ssh"
    SCP = "scp"


@dataclass(frozen=True)
class FlowRequest:
    """One TCP flow to be executed by the transport substrate."""

    start_us: int
    client_index: int
    archetype: FlowArchetype
    download: bool          # True: wired server -> client; False: upload
    total_bytes: int
    segment_bytes: int

    def __post_init__(self) -> None:
        if self.total_bytes <= 0:
            raise ValueError("flow must carry at least one byte")
        if self.segment_bytes <= 0:
            raise ValueError("segment size must be positive")


#: Mean flow size of each archetype, in bytes: short web pages, thin ssh
#: sessions, large scp copies.
ARCHETYPE_BYTES_MEAN = {
    FlowArchetype.WEB: 24_000.0,
    FlowArchetype.SSH: 4_000.0,
    FlowArchetype.SCP: 400_000.0,
}

#: Per-archetype typical segment size: ssh is interactive small writes; web
#: and scp move MSS-sized segments.
_SSH_SEGMENT_BYTES = 120


def generate_flows(
    config: ScenarioConfig, rng: np.random.Generator
) -> List[FlowRequest]:
    """Generate the full flow schedule for a scenario.

    Arrival process: per-client Poisson with rate modulated by the
    arrival envelope — the diurnal curve times the flash-crowd wave, both
    applied by thinning against the envelope's peak.  (With neither
    enabled the envelope is flat at 1 and the process is plain Poisson.)
    Sizes are exponential around each archetype's mean, clamped to at
    least one segment.
    """
    workload = config.workload
    weights = workload.archetype_weights()
    archetypes = (FlowArchetype.WEB, FlowArchetype.SSH, FlowArchetype.SCP)

    flows: List[FlowRequest] = []
    # Generate at the envelope's peak rate and thin down to the local
    # envelope value; a flash wave multiplies the peak by (1 + intensity).
    peak = workload.flash_peak
    rate_per_us = workload.flows_per_client_per_s / 1e6 * peak
    for client in range(config.n_clients):
        t = 0.0
        while True:
            # Poisson thinning against the arrival envelope.
            t += rng.exponential(1.0 / rate_per_us)
            if t >= config.duration_us:
                break
            if rng.random() > config.arrival_envelope(int(t)) / peak:
                continue
            start = _snap_to_meeting_boundary(int(t), config, rng)
            archetype = archetypes[int(rng.choice(3, p=weights))]
            total = max(
                workload.mss_bytes,
                int(rng.exponential(ARCHETYPE_BYTES_MEAN[archetype])),
            )
            segment = (
                _SSH_SEGMENT_BYTES
                if archetype is FlowArchetype.SSH
                else workload.mss_bytes
            )
            download = rng.random() > workload.upload_fraction
            flows.append(
                FlowRequest(
                    start_us=start,
                    client_index=client,
                    archetype=archetype,
                    download=download,
                    total_bytes=total,
                    segment_bytes=segment,
                )
            )
    flows.sort(key=lambda f: f.start_us)
    return flows


def _snap_to_meeting_boundary(
    t_us: int, config: ScenarioConfig, rng: np.random.Generator
) -> int:
    """With small probability, snap a flow start to an hour/half-hour mark.

    Only meaningful under diurnal shaping, where the run maps to a day;
    produces the on-the-boundary burstiness of Figure 8(b).
    """
    if not config.diurnal or rng.random() > 0.2:
        return t_us
    half_hour_us = config.duration_us / 48.0
    snapped = round(t_us / half_hour_us) * half_hour_us
    jitter = rng.uniform(0, half_hour_us * 0.05)
    result = int(min(max(0, snapped + jitter), config.duration_us - 1))
    return result


def flow_counts_by_archetype(flows: Sequence[FlowRequest]) -> dict:
    """Histogram of flows per archetype (reporting helper)."""
    counts = {archetype: 0 for archetype in FlowArchetype}
    for flow in flows:
        counts[flow.archetype] += 1
    return counts
