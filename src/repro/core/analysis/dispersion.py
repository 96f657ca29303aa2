"""Group dispersion CDF — Figure 4.

"The graph shows the CDF of group dispersion values calculated for every
jframe processed from 156 radios over a 24-hour period.  For 90% percent of
all jframes, the worst case time offset between any two radios is less than
10 us, and 99% see a worst case offset under 20 us."

:class:`DispersionPass` streams the samples off the pipeline's jframe
feed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..passes import PassContext, PipelinePass
from ..unify.unifier import DISPERSION_MIN_INSTANCES


@dataclass
class DispersionCdf:
    """The Figure 4 curve plus its headline percentiles."""

    samples_us: List[float]

    @property
    def n(self) -> int:
        return len(self.samples_us)

    def percentile(self, q: float) -> float:
        if not self.samples_us:
            return 0.0
        return float(np.percentile(self.samples_us, q))

    @property
    def p50_us(self) -> float:
        return self.percentile(50)

    @property
    def p90_us(self) -> float:
        return self.percentile(90)

    @property
    def p99_us(self) -> float:
        return self.percentile(99)

    def fraction_below(self, threshold_us: float) -> float:
        if not self.samples_us:
            return 0.0
        below = sum(1 for s in self.samples_us if s < threshold_us)
        return below / len(self.samples_us)

    def cdf_points(self, max_points: int = 200) -> List[Tuple[float, float]]:
        """(dispersion_us, cumulative fraction) pairs for plotting."""
        if not self.samples_us:
            return []
        ordered = np.sort(self.samples_us)
        step = max(1, len(ordered) // max_points)
        points = [
            (float(ordered[i]), (i + 1) / len(ordered))
            for i in range(0, len(ordered), step)
        ]
        if points[-1][1] != 1.0:
            points.append((float(ordered[-1]), 1.0))
        return points

    def format_table(self) -> str:
        return "\n".join(
            [
                f"jframes with >=2 instances: {self.n:,}",
                f"median dispersion: {self.p50_us:.1f} us",
                f"90th percentile:   {self.p90_us:.1f} us "
                f"(paper: <10 us for 90%)",
                f"99th percentile:   {self.p99_us:.1f} us "
                f"(paper: <20 us for 99%)",
                f"fraction < 10 us:  {self.fraction_below(10):.3f}",
                f"fraction < 20 us:  {self.fraction_below(20):.3f}",
            ]
        )


class DispersionPass(PipelinePass):
    """Streaming Figure 4: collect dispersion samples as jframes arrive."""

    name = "dispersion"

    def __init__(self) -> None:
        self._samples: List[float] = []

    def on_jframe(self, jframe) -> None:
        if jframe.n_instances >= DISPERSION_MIN_INSTANCES:
            self._samples.append(jframe.dispersion_us)

    def finish(self, context: PassContext) -> DispersionCdf:
        return DispersionCdf(samples_us=self._samples)
