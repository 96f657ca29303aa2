"""Per-radio clock tracking during unification (Section 4.2).

Each radio's trace gets a :class:`ClockTrack`: the bootstrap offset, an
anchor point re-set at every resynchronization, and an EWMA skew estimate.
"Jigsaw pro-actively adjusts the local timestamp of each instance to
compensate for the clock skew on the radio receiving it ... [and uses] an
exponentially weighted moving average of past skew measurements to predict
future skew on a per-instance basis."
"""

from __future__ import annotations

from dataclasses import dataclass

#: EWMA weight for new skew measurements.
DEFAULT_SKEW_ALPHA = 0.2

#: Minimum local-time gap between resyncs for a skew measurement to be
#: meaningful; shorter gaps give noise-dominated slope estimates.
MIN_SKEW_BASELINE_US = 10_000

#: Sanity bound on skew estimates (the standard's 100 PPM, with margin).
MAX_TRACKED_SKEW_PPM = 500.0


@dataclass(slots=True)
class ClockTrack:
    """Maps one radio's local timestamps onto universal time.

    ``slots=True`` because the merge hot loop reads four of these fields
    per record pushed: slot loads shave a dict probe off each.
    """

    radio_id: int
    offset_us: float                 # universal - local at the anchor
    anchor_local_us: float = 0.0     # local time of the last resync
    skew_ppm: float = 0.0            # EWMA skew estimate
    compensate_skew: bool = True
    resync_count: int = 0
    skew_samples: int = 0
    #: Bumped on every mutation of the mapping.  A caller that cached a
    #: ``universal_us`` result (the merge heap does, at push time) can
    #: compare generations on pop and skip the recomputation when no
    #: resync touched this track in between.
    generation: int = 0

    def universal_us(self, local_us: float) -> float:
        """Predicted universal time for a local timestamp."""
        elapsed = local_us - self.anchor_local_us
        correction = self.skew_ppm * 1e-6 * elapsed if self.compensate_skew else 0.0
        return local_us + self.offset_us + correction

    def resync(self, local_us: float, universal_us: float) -> float:
        """Re-anchor this clock so ``local_us`` maps to ``universal_us``.

        Returns the correction that was applied (universal minus the prior
        prediction) — the per-trace adjustment of Figure 3.  Also folds a
        new skew measurement into the EWMA when the baseline since the last
        resync is long enough to be meaningful.
        """
        predicted = self.universal_us(local_us)
        correction = universal_us - predicted
        baseline = local_us - self.anchor_local_us
        if baseline >= MIN_SKEW_BASELINE_US:
            # Observed slope error over the baseline, in PPM, on top of the
            # compensation already being applied.
            measured = self.skew_ppm + (correction / baseline) * 1e6
            measured = max(-MAX_TRACKED_SKEW_PPM, min(MAX_TRACKED_SKEW_PPM, measured))
            if self.skew_samples == 0:
                self.skew_ppm = measured
            else:
                self.skew_ppm += DEFAULT_SKEW_ALPHA * (measured - self.skew_ppm)
            self.skew_samples += 1
        self.anchor_local_us = local_us
        self.offset_us = universal_us - local_us
        self.resync_count += 1
        self.generation += 1
        return correction
