"""Windowed analysis passes with mid-stream sealing (service mode).

Batch passes surrender one result at ``finish()``.  A daemon never
finishes, so these passes fold their hook events into fixed-width time
windows and surrender each window through
:meth:`~repro.core.passes.PipelinePass.seal_ready` as soon as the
pipeline's emission watermark guarantees no future event can land in it.

Sealing discipline (shared by every pass here):

* windows are half-open ``[id * width, (id + 1) * width)`` on the
  universal timeline, so a window id names the same interval in every
  run and every daemon incarnation;
* window ``w`` seals once ``watermark_us >= (w + 1) * width`` — the
  watermark contract says every jframe/attempt/exchange at or before it
  has been delivered, and events are binned by a timestamp inside their
  window;
* windows seal in ascending id order, each exactly once per instance,
  with empty windows included — the sealed sequence is gap-free, which
  is what makes the crash/resume parity assertion a plain list compare;
* payloads are pure functions of the events fed, never of when
  ``seal_ready`` was called, so a window sealed after a checkpoint
  restore is bit-identical to the uninterrupted run's.

State is plain dicts of counters, so default instance pickling
checkpoints these passes unchanged.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..core.link.attempt import TransmissionAttempt
from ..core.link.exchange import FrameExchange
from ..core.passes import PassContext, PipelinePass, SealedWindow
from ..core.unify.jframe import JFrame, JFrameKind


class _WindowedPass(PipelinePass):
    """Shared windowing machinery: binning, sealing, final flush."""

    name = "windowed"

    def __init__(self, window_us: int) -> None:
        if window_us <= 0:
            raise ValueError("window width must be positive")
        self.window_us = int(window_us)
        #: Accumulators keyed by window id (created on first event).
        self._windows: Dict[int, Dict[str, Any]] = {}
        #: Next window id to seal; everything below is already out.
        self._next_seal = 0
        #: Highest window id any event landed in (-1: none yet).
        self._max_window = -1

    # --- subclass surface -------------------------------------------------

    def _new_payload(self) -> Dict[str, Any]:
        """A fresh (empty) window accumulator."""
        raise NotImplementedError

    # --- binning ----------------------------------------------------------

    def _window_for(self, timestamp_us: float) -> Dict[str, Any]:
        window_id = max(0, int(timestamp_us) // self.window_us)
        if window_id > self._max_window:
            self._max_window = window_id
        payload = self._windows.get(window_id)
        if payload is None:
            payload = self._windows[window_id] = self._new_payload()
        return payload

    # --- sealing ----------------------------------------------------------

    def seal_ready(self, watermark_us: float) -> List[SealedWindow]:
        sealed: List[SealedWindow] = []
        width = self.window_us
        while (
            self._next_seal <= self._max_window
            and (self._next_seal + 1) * width <= watermark_us
        ):
            sealed.append(self._seal_one())
        return sealed

    def _seal_one(self) -> SealedWindow:
        window_id = self._next_seal
        self._next_seal += 1
        width = self.window_us
        payload = self._windows.pop(window_id, None)
        if payload is None:
            payload = self._new_payload()
        return SealedWindow(
            pass_name=self.name,
            window_id=window_id,
            start_us=window_id * width,
            end_us=(window_id + 1) * width,
            payload=payload,
        )

    def finish(self, context: Optional[PassContext]) -> Dict[str, Any]:
        """Seal every remaining window and return the full sequence.

        The daemon publishes the remainder through a final
        ``seal_ready(inf)`` *before* calling ``finish`` — sealing here
        too keeps the pass correct under the plain batch pipeline,
        where nobody ever calls ``seal_ready``.  Both paths converge on
        the same result: sealing is idempotent per window.
        """
        tail: List[SealedWindow] = []
        while self._next_seal <= self._max_window:
            tail.append(self._seal_one())
        return {
            "window_us": self.window_us,
            "n_windows": self._next_seal,
            "tail": tail,
        }


class WindowedSummaryPass(_WindowedPass):
    """Per-window Table 1 digest: jframe kinds, attempts, exchanges."""

    name = "windowed_summary"

    def _new_payload(self) -> Dict[str, Any]:
        return {
            "jframes": 0,
            "valid": 0,
            "corrupt": 0,
            "phy_error": 0,
            "instances": 0,
            "attempts": 0,
            "exchanges": 0,
        }

    def on_jframe(self, jframe: JFrame) -> None:
        payload = self._window_for(jframe.timestamp_us)
        payload["jframes"] += 1
        payload["instances"] += jframe.n_instances
        if jframe.kind is JFrameKind.VALID:
            payload["valid"] += 1
        elif jframe.kind is JFrameKind.CORRUPT:
            payload["corrupt"] += 1
        else:
            payload["phy_error"] += 1

    def on_attempt(self, attempt: TransmissionAttempt) -> None:
        self._window_for(attempt.start_us)["attempts"] += 1

    def on_exchange(self, exchange: FrameExchange) -> None:
        self._window_for(exchange.start_us)["exchanges"] += 1


class WindowedInterferencePass(_WindowedPass):
    """Per-window interference signal: damage counts and dispersion.

    Corrupt and PHY-error jframes are the paper's interference
    observables (Section 6.2); wide dispersion marks transmissions whose
    receptions disagreed in time — both binned per channel so a live
    dashboard can watch contention build window by window.
    """

    name = "windowed_interference"

    def __init__(
        self, window_us: int, dispersion_threshold_us: float = 10.0
    ) -> None:
        super().__init__(window_us)
        self.dispersion_threshold_us = float(dispersion_threshold_us)

    def _new_payload(self) -> Dict[str, Any]:
        return {
            "damaged_by_channel": {},
            "wide_dispersion": 0,
            "dispersion_sum_us": 0.0,
        }

    def on_jframe(self, jframe: JFrame) -> None:
        payload = self._window_for(jframe.timestamp_us)
        if jframe.kind is not JFrameKind.VALID:
            by_channel = payload["damaged_by_channel"]
            by_channel[jframe.channel] = by_channel.get(jframe.channel, 0) + 1
        payload["dispersion_sum_us"] += jframe.dispersion_us
        if jframe.dispersion_us >= self.dispersion_threshold_us:
            payload["wide_dispersion"] += 1


class WindowedLossPass(_WindowedPass):
    """Per-window link-layer delivery: retries, losses, ambiguity."""

    name = "windowed_loss"

    def _new_payload(self) -> Dict[str, Any]:
        return {
            "exchanges": 0,
            "retransmissions": 0,
            "delivered": 0,
            "lost": 0,
            "ambiguous": 0,
        }

    def on_exchange(self, exchange: FrameExchange) -> None:
        payload = self._window_for(exchange.start_us)
        payload["exchanges"] += 1
        payload["retransmissions"] += exchange.retransmissions
        if exchange.delivered is True:
            payload["delivered"] += 1
        elif exchange.delivered is False:
            payload["lost"] += 1
        else:
            payload["ambiguous"] += 1
