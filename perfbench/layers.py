"""Which functions of each layer the traced run wraps, and the per-layer
metrics computed from their spans and from the program's own counters.

Every wrapper sits at the name the caller looks the function up under,
so the program's code is unchanged: ``repro.core.laca.greedy_diffuse`` is
the name ``laca_scores`` calls, ``repro.serving.pool.publish_snapshot``
the name the pool calls, and so on.
"""

from __future__ import annotations

import numpy as np

from tracer import Tracer, worker_distribution

#: Span names of the serving layer's own work (dispatcher and collector).
SERVING_SPANS = ("serving.answer_block", "serving.pool_dispatch", "serving.pool_resolve")

#: Scatter kernels the greedy engines report (``laca_kernel_selections_total``).
KERNELS = ("gather", "csc", "full", "block_sparse", "block_dense")


def install(tracer: Tracer) -> None:
    """Wrap every traced function; call before any pool forks."""
    import repro.attributes.tnam as tnam
    import repro.core.laca as laca
    import repro.core.pipeline as pipeline
    import repro.graphs.store as store
    import repro.serving.cache as cache
    import repro.serving.pool as pool
    import repro.serving.service as service
    import repro.serving.telemetry as telemetry

    wrap = tracer.wrap
    # graphs
    wrap(store.GraphStore, "apply", "graphs.store_apply")
    wrap(pool, "publish_snapshot", "graphs.publish_snapshot")
    # attributes
    wrap(pipeline, "build_tnam", "attributes.build_tnam")
    wrap(tnam.TNAM, "update_rows", "attributes.update_rows")
    # diffusion
    wrap(laca, "greedy_diffuse", "diffusion.sequential")
    wrap(laca, "batch_diffuse", "diffusion.block", size=lambda args, kwargs: args[1].shape[1])
    # core
    wrap(pipeline, "laca_scores", "core.laca_scores")
    wrap(pipeline.LACA, "scores", "core.scores")
    wrap(
        pipeline.LACA, "scores_batch", "core.scores_batch",
        size=lambda args, kwargs: len(args[1]),
    )
    wrap(pipeline.LACA, "refresh", "core.refresh")
    for module in (laca, pipeline, service, pool):
        wrap(module, "top_k_cluster", "core.topk")
    # serving
    wrap(service.ClusterService, "_answer_block", "serving.answer_block")
    wrap(pool.PoolClusterService, "_answer", "serving.pool_dispatch")
    wrap(pool.PoolClusterService, "_resolve_block", "serving.pool_resolve")
    wrap(cache.ResultCache, "advance_epoch", "serving.cache_advance")
    # obs: every telemetry recorder the services call
    for attr in sorted(vars(telemetry.ServiceTelemetry)):
        if attr.startswith("record_") or attr == "merge_engine_delta":
            wrap(telemetry.ServiceTelemetry, attr, f"obs.{attr}")
    tracer.capture_worker_registry(pool)


def _p50(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


class SpanView:
    """Span figures for one name: the parent's exact spans plus, on the
    pool, the workers' histograms merged into the head registry."""

    def __init__(self, tracer: Tracer, registry, name: str, phase: str) -> None:
        spans = tracer.select(name, phase)
        self.durations = [span.duration for span in spans]
        self.count = len(spans)
        self.sum_s = float(sum(self.durations))
        self.size_sum = float(sum(span.size for span in spans))
        self.worker = worker_distribution(registry, name) if registry is not None else None
        if self.worker is not None:
            self.count += self.worker["count"]
            self.sum_s += self.worker["sum_s"]
            self.size_sum += self.worker["size_sum"]

    @property
    def p50_s(self) -> float:
        """Exact median of parent spans; the workers' bucketed median
        when the work ran in pool workers."""
        if self.worker is not None and self.worker["count"] >= len(self.durations):
            return self.worker["p50_s"]
        return _p50(self.durations)


def per_layer(tracer: Tracer, ctx: dict) -> tuple[dict, dict]:
    """Per-layer metrics and report-only extras from one traced run.

    ``ctx`` carries what the workload measured around the spans: answered
    query counts, traced/untraced throughput, raw loop rate, stats deltas,
    and the exact touched-support sample of the correctness gate.
    """
    registry = ctx["registry"]
    served = max(ctx["served_answered"], 1)

    def view(name: str, phase: str) -> SpanView:
        return SpanView(tracer, registry if phase == "served" else None, name, phase)

    def p50_ms(name: str, phase: str) -> float:
        return view(name, phase).p50_s * 1e3

    def first_s(name: str) -> float:
        spans = tracer.select(name, "setup")
        return spans[0].duration if spans else 0.0

    seq = view("diffusion.sequential", "served")
    block = view("diffusion.block", "served")
    batch = view("core.scores_batch", "served")
    raw_step2 = [span.self_s for span in tracer.select("core.laca_scores", "raw")]
    serving_self = sum(
        span.self_s
        for name in SERVING_SPANS
        for span in tracer.select(name, "served")
    )
    telemetry_s = sum(
        span.duration
        for span in tracer.spans
        if span.phase == "served"
        and span.name.startswith("obs.")
        and not (span.parent or "").startswith("obs.")
    )
    kernels = ctx["kernel_counts"]
    kernel_total = sum(kernels.values()) or 1.0
    stats = ctx["stats"]
    untraced, traced = ctx["untraced_qps"], ctx["traced_qps"]

    metrics = {
        "graphs.build_s": first_s("graphs.build"),
        "graphs.apply_ms": p50_ms("graphs.store_apply", "update"),
        "attributes.tnam_build_s": first_s("attributes.build_tnam"),
        "attributes.tnam_update_ms": p50_ms("attributes.update_rows", "update"),
        "diffusion.seq_calls": seq.count / served,
        "diffusion.seq_ms_p50": p50_ms("diffusion.sequential", "raw"),
        "diffusion.block_calls": block.count / served,
        "diffusion.block_ms_p50": block.p50_s * 1e3,
        "diffusion.block_width_mean": block.size_sum / block.count if block.count else 0.0,
        **{
            f"diffusion.kernel_share.{kind}": kernels.get(kind, 0.0) / kernel_total
            for kind in KERNELS
        },
        "diffusion.touched_fraction_p50": ctx["touched_fraction_p50"],
        "diffusion.touched_volume_p50": ctx["touched_volume_p50"],
        "core.raw_qps": ctx["raw_qps"],
        "core.scores_ms_p50": p50_ms("core.scores", "raw"),
        "core.scores_batch_ms_per_seed": (
            batch.sum_s * 1e3 / batch.size_sum if batch.size_sum else 0.0
        ),
        "core.step2_self_ms": _p50(raw_step2) * 1e3,
        "core.topk_ms_p50": p50_ms("core.topk", "raw"),
        "core.refresh_ms": p50_ms("core.refresh", "update"),
        "serving.efficiency": untraced / ctx["raw_qps"] if ctx["raw_qps"] else 0.0,
        "serving.self_ms_per_query": serving_self * 1e3 / served,
        "serving.queue_wait_p50_ms": stats["p50_queue_wait_s"] * 1e3,
        "serving.block_size_mean": stats["block_size_mean"],
        "serving.cache_hit_rate": stats["cache_hit_rate"],
        "serving.entries_promoted": float(stats["entries_promoted"]),
        "serving.entries_invalidated": float(stats["entries_invalidated"]),
        "serving.cache_advance_ms": p50_ms("serving.cache_advance", "update"),
        "serving.pool.collect_p50_ms": stats["p50_collect_s"] * 1e3,
        "serving.pool.engine_p50_ms": stats["p50_engine_s"] * 1e3,
        "serving.pool.worker_balance": stats["worker_balance"],
        "serving.pool.block_retries": float(stats["block_retries"]),
        "serving.pool.worker_restarts": float(stats["worker_restarts"]),
        "obs.telemetry_us_per_query": telemetry_s * 1e6 / served,
        "obs.trace_overhead_pct": (untraced - traced) / untraced * 100.0 if untraced else 0.0,
    }
    extras = {
        # Only the pool publishes snapshots, so this reads on `churn` alone.
        "graphs.publish_ms": p50_ms("graphs.publish_snapshot", "update"),
        "spans_recorded": len(tracer.spans),
    }
    return metrics, extras
