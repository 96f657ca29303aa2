"""Composable analysis passes over the one-pass reconstruction pipeline.

The Section 6/7 analyses historically consumed a fully materialized
:class:`~repro.core.pipeline.JigsawReport` — every jframe, attempt,
exchange and flow held in memory at once.  The pipeline itself, however,
reconstructs all four layers in a single pipelined pass, so an analysis
that only ever *folds* over those streams never needed the lists.

A :class:`PipelinePass` taps that pass directly:

* :meth:`PipelinePass.on_jframe` — every unified jframe, in global
  timestamp order;
* :meth:`PipelinePass.on_attempt` — every sealed transmission attempt,
  in creation (data-frame) order;
* :meth:`PipelinePass.on_exchange` — every frame exchange, in
  ``start_us`` order (the assembler's bounded reorder buffer guarantees
  in-order delivery);
* :meth:`PipelinePass.on_flow` — every reconstructed TCP flow, after
  transport inference, ordered by first observation;
* :meth:`PipelinePass.finish` — called once with a :class:`PassContext`
  of run-level state; its return value becomes the pass's result on
  ``report.passes[pass.name]``.

``JigsawPipeline.run(traces, passes=[...])`` drives registered passes
inside the one-pass loop.  Report materialization itself is just the
built-in :class:`MaterializePass`; pass ``materialize=False`` to drop it
and run analyses without the per-layer lists.  That bounds the report,
not the input: a file-backed trace keeps every record it decoded until
the run ends.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Sequence, TYPE_CHECKING

if TYPE_CHECKING:  # import-light at runtime: passes sits below these layers
    from .link.attempt import TransmissionAttempt
    from .link.exchange import FrameExchange
    from .transport.flows import TcpFlow
    from .unify.jframe import JFrame


@dataclass(frozen=True)
class SealedWindow:
    """One windowed pass result, sealed and ready for publication.

    A *windowed* pass folds its hook events into fixed-width time
    windows.  Once the pipeline's emission watermark passes a window's
    end, no future jframe/attempt/exchange can land in it, so the pass
    surrenders the window through :meth:`PipelinePass.seal_ready` — the
    service daemon publishes it immediately instead of waiting for
    ``finish()``.  ``window_id`` is the window's index on the universal
    timeline (``start_us // width``), which makes re-publications after
    a checkpoint restore deduplicable: the same window always seals with
    the same id and the same payload, no matter when it is sealed.
    """

    pass_name: str
    window_id: int
    start_us: int
    end_us: int
    payload: Any

    @property
    def key(self) -> "tuple[str, int]":
        """Dedup key for at-least-once publication sinks."""
        return (self.pass_name, self.window_id)


@dataclass
class PassContext:
    """Run-level state handed to :meth:`PipelinePass.finish`.

    The pipeline populates it at the end of a run.  Fields are
    deliberately loosely typed to keep this module import-light (it sits
    below both the pipeline and the analysis package).
    """

    bootstrap: Any = None
    tracks: Dict[int, Any] = field(default_factory=dict)
    unify_stats: Any = None
    attempt_stats: Any = None
    exchange_stats: Any = None
    transport_stats: Any = None
    #: Raw capture volume as the merge read it (Table 1): the VALID
    #: records among ``unify_stats.records_in``, and the input radios,
    #: quarantined ones included.  No pass walks the records again.
    valid_records: int = 0
    n_radios: int = 0
    #: Accepted for callers that assemble a context by hand; the
    #: pipeline leaves it empty and no library pass reads it.
    traces: Sequence[Any] = ()
    n_flows: int = 0


class PipelinePass:
    """Base class for streaming analysis passes.

    Subclasses override only the hooks they need; every hook defaults to
    a no-op.  A pass instance is single-use: it accumulates state across
    the hooks and surrenders its result from :meth:`finish`.  Service
    checkpoints pickle it like any other object, so that state must be
    picklable (a pass holding a file handle or socket defines
    ``__getstate__``/``__setstate__`` to drop and re-acquire it).
    """

    #: Key under which the result lands in ``report.passes``.
    name: str = "pass"

    def on_jframe(self, jframe: JFrame) -> None:
        """One unified jframe, in global timestamp order."""

    def on_attempt(self, attempt: TransmissionAttempt) -> None:
        """One sealed transmission attempt, in creation order."""

    def on_exchange(self, exchange: FrameExchange) -> None:
        """One closed frame exchange, in ``start_us`` order.

        Caveat: this fires *before* transport inference, which may later
        upgrade ``exchange.delivered`` (and
        ``delivery_inferred_from_transport``) in place.  A pass that
        depends on final delivery verdicts should read them from flows
        in :meth:`on_flow`/:meth:`finish`, not here.
        """

    def on_flow(self, flow: TcpFlow) -> None:
        """One reconstructed TCP flow, after transport inference."""

    def finish(self, context: PassContext) -> Any:
        """Finalize and return this pass's result."""
        return None

    # --- windowed emission (service mode) --------------------------------

    def seal_ready(self, watermark_us: float) -> List[SealedWindow]:
        """Windows no future event can change, given the emission watermark.

        The service daemon calls this after every feed step with the
        conservative downstream watermark (the exchange assembler's
        emission bound — everything earlier has been delivered to every
        hook).  A windowed pass returns the finished windows, oldest
        first, and must never return the same window twice on one
        instance; non-windowed passes inherit this no-op.  Sealing must
        be a pure function of the events fed so far — the crash/resume
        parity suite holds that a window sealed after a checkpoint
        restore is bit-identical to the uninterrupted run's.
        """
        return []


class MaterializePass(PipelinePass):
    """The built-in pass that retains the per-layer lists.

    Report materialization is itself just another fold over the streams —
    the one whose accumulator is O(trace).  The pipeline registers it by
    default (``materialize=True``) and skips it for bounded-memory runs.
    """

    name = "materialize"

    def __init__(self) -> None:
        self.jframes: List[JFrame] = []
        self.attempts: List[TransmissionAttempt] = []
        self.exchanges: List[FrameExchange] = []

    def on_jframe(self, jframe: JFrame) -> None:
        self.jframes.append(jframe)

    def on_attempt(self, attempt: TransmissionAttempt) -> None:
        self.attempts.append(attempt)

    def on_exchange(self, exchange: FrameExchange) -> None:
        self.exchanges.append(exchange)

    def finish(self, context: PassContext) -> None:
        return None


def check_pass_names(passes: Iterable[PipelinePass]) -> None:
    """Reject duplicate pass names early (results are keyed by name)."""
    seen: Dict[str, PipelinePass] = {}
    for p in passes:
        if p.name in seen:
            raise ValueError(
                f"duplicate pass name {p.name!r}: results are keyed by "
                f"name — give one of the passes a distinct .name"
            )
        seen[p.name] = p
