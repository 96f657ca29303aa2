"""The traced run: each layer's public entry point, one after another.

The timed repetitions run ``JigsawPipeline.run`` (or the daemon) as a
user does — one pipelined pass, untraced.  This run takes the same work
apart: every stage is called on the previous stage's materialized
output with a span around the call, so the per-layer seconds and counts
come from the layer boundaries themselves.  What pipelining, the
decode-ahead threads and streaming cursors add or save over these
barrier phases is ``pipeline.unattributed_share``.

In-program spans are a later change; when they land they replace this
file without renaming a metric.
"""

from __future__ import annotations

import math
import statistics
from typing import Any, Dict, Sequence

from repro.core.link.attempt import AttemptAssembler
from repro.core.link.exchange import ExchangeAssembler
from repro.core.passes import PassContext
from repro.core.pipeline import JigsawPipeline
from repro.core.sync.sharded import ShardedBootstrap
from repro.core.transport.flows import FlowCollector
from repro.core.transport.inference import TransportInference
from repro.core.unify.hierarchy import MergeTree
from repro.core.unify.unifier import Unifier, partition_traces
from repro.jtrace.io import DecodeHealth, open_trace_streams
from repro.service import load_checkpoint

from harness import Tracer
from workloads import (
    Inputs,
    LagObservingFeed,
    Reference,
    Workload,
    check_stats,
    representative_passes,
    run_once,
    windowed_passes,
)

#: Stage spans whose seconds add up to ``pipeline.staged_sum_s``.
STAGES = (
    "jtrace.decode",
    "sync.bootstrap",
    "unify.merge",
    "link.attempts",
    "link.exchanges",
    "transport.flows",
    "transport.inference",
    "passes.hooks",
    "passes.finish",
)


def traced_run(
    workload: Workload, inputs: Inputs, reference: Reference, tracer: Tracer
) -> Dict[str, Any]:
    """Run every stage under spans; return what the stages counted.

    ``problems`` lists any disagreement with the reference statistics
    (empty = the staged reconstruction equals the pipelined one).
    """
    with tracer.span("traced_run"):
        seen = _batch_stages(workload, inputs, tracer)
    seen["problems"] = check_stats(seen["stats"], reference)
    if workload.name == "campus_auto_workers":
        # The same merge through a serial tree, for unify.pool_speedup.
        with tracer.span("unify.serial_merge"):
            serial = MergeTree(max_workers=1).unify(
                seen["traces"], seen["bootstrap"]
            )
        if serial.stats != seen["stats"]["unify"]:
            seen["problems"].append(
                f"auto-sized merge {seen['stats']['unify']!r} differs from "
                f"the serial tree's {serial.stats!r}"
            )
    if workload.service:
        seen.update(_service_stages(workload, inputs, reference, tracer))
    return seen


def _batch_stages(
    workload: Workload, inputs: Inputs, tracer: Tracer
) -> Dict[str, Any]:
    seen: Dict[str, Any] = {"bytes_compressed": 0}
    ingest = DecodeHealth()
    traces: Sequence[Any]
    if inputs.trace_dir is not None:
        with tracer.span("jtrace.decode"):
            traces = open_trace_streams(inputs.trace_dir, policy=inputs.policy)
            for stream in traces:
                stream.records  # drains the file through the decoder
        for stream in traces:
            ingest.merge(stream.decode_health)
        seen["bytes_compressed"] = sum(
            p.stat().st_size for p in inputs.trace_dir.glob("radio_*.jtr.gz")
        )
    else:
        assert inputs.traces is not None
        traces = inputs.traces
    seen["ingest"] = ingest

    with tracer.span("sync.bootstrap"):
        # On the file workloads the streams are already drained, so the
        # examination window is served from their replay buffers: the
        # decode is counted once, in the span above.
        if inputs.trace_dir is None:
            traces = [t.sorted_by_local_time() for t in traces]
        bootstrap = ShardedBootstrap(max_workers=1).bootstrap(
            traces, clock_groups=inputs.clock_groups
        )
    seen["bootstrap"] = bootstrap
    seen["traces"] = traces

    with tracer.span("unify.partition"):
        sizes = [
            sum(len(t) for t in shard) for shard in partition_traces(traces)
        ]
    seen["shards"] = len(sizes)
    seen["shard_skew"] = max(sizes) / statistics.mean(sizes) if sizes else 0.0

    # The service workload's stages are the batch decomposition of the
    # same reconstruction (a plain Unifier, as the daemon's shards use).
    coordinator = workload.make_unifier() or Unifier()
    with tracer.span("unify.merge"):
        unification = coordinator.unify(traces, bootstrap)
    health = getattr(coordinator, "health", None)
    seen["pool_workers"] = 0 if health is None else health.pool_workers
    jframes = unification.jframes

    with tracer.span("link.attempts"):
        attempt_assembler = AttemptAssembler()
        attempts = []
        for jframe in jframes:
            attempts.extend(attempt_assembler.feed(jframe))
        attempts.extend(attempt_assembler.finish())
    with tracer.span("link.exchanges"):
        exchange_assembler = ExchangeAssembler()
        exchanges = []
        for attempt in attempts:
            exchanges.extend(exchange_assembler.feed(attempt))
        exchanges.extend(exchange_assembler.finish())
    with tracer.span("transport.flows"):
        collector = FlowCollector()
        for exchange in exchanges:
            collector.feed(exchange)
        flows = collector.finish()
    with tracer.span("transport.inference"):
        seen["transport"] = TransportInference().run(flows)
    seen["stats"] = {
        "unify": unification.stats,
        "attempts": attempt_assembler.stats,
        "exchanges": exchange_assembler.stats,
        "flows": len(flows),
    }

    passes = (
        windowed_passes(inputs.window_us)
        if workload.service
        else representative_passes(inputs.duration_us)
    )
    with tracer.span("passes.hooks"):
        for layer, hook in (
            (jframes, "on_jframe"),
            (attempts, "on_attempt"),
            (exchanges, "on_exchange"),
            (flows, "on_flow"),
        ):
            for p in passes:
                call = getattr(p, hook)
                for item in layer:
                    call(item)
    seen["hook_calls"] = len(passes) * (
        len(jframes) + len(attempts) + len(exchanges) + len(flows)
    )
    with tracer.span("passes.finish"):
        context = PassContext(
            bootstrap=bootstrap,
            tracks=unification.tracks,
            unify_stats=unification.stats,
            attempt_stats=attempt_assembler.stats,
            exchange_stats=exchange_assembler.stats,
            transport_stats=seen["transport"],
            traces=traces,
            n_flows=len(flows),
        )
        for p in passes:
            p.finish(context)
    return seen


def _service_stages(
    workload: Workload, inputs: Inputs, reference: Reference, tracer: Tracer
) -> Dict[str, Any]:
    """Daemon without checkpoints, its batch twin, window lag, restore."""
    with tracer.span("service.serve_nockpt"):
        run_once(workload, inputs, checkpoints=False)
    with tracer.span("service.batch_run"):
        JigsawPipeline().run(
            inputs.traces,
            clock_groups=inputs.clock_groups,
            passes=windowed_passes(inputs.window_us),
            materialize=False,
        )
    feed = LagObservingFeed(
        inputs.traces,
        inputs.clock_groups,
        reference.offsets_us,
        inputs.window_us,
        inputs.workdir / "service.ckpt",
    )
    with tracer.span("service.serve_observed"):
        _, service = run_once(workload, inputs, feed=feed)
    assert service is not None
    with tracer.span("service.restore"):
        # The file the observed run above just wrote.
        load_checkpoint(inputs.workdir / "service.ckpt")
    return {
        "lags_us": feed.lags_us,
        "windows_published": len(service.published),
        "checkpoint_bytes_max": max(feed.checkpoint_bytes, default=0),
    }


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile: always one of the observed values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * share)) - 1]
