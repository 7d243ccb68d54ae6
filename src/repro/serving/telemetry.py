"""Per-service telemetry: latency percentiles, occupancy, throughput.

Every event is recorded once, into a
:class:`~repro.obs.metrics.MetricsRegistry` — log-spaced-bucket
histograms, labeled counters and gauges, O(1) memory, mergeable across
the pool's worker processes, rendered by ``/metrics``.  :meth:`snapshot`
(and so ``stats()``) reads its counts, sums and maxima from that
registry.  The only state kept beside it is a small set of **exact
windows** — bounded deques of the most recent latency, stage and update
samples — because ``stats()`` pins its percentiles to the harness's
:func:`~repro.eval.harness.latency_percentile` (``p50_latency_s`` here
and ``p50_online_s`` in evaluation tables mean the same thing), which
bucketed histograms can only approximate.

Both are O(1) in traffic: registry families are running aggregates over
fixed buckets and the windows are bounded, so a long-lived service never
grows its telemetry footprint.

:func:`make_engine_metrics` builds the engine-introspection family
(kernel selections, touched volume, iterations, frontier peaks) against
*any* registry — the head service and every pool worker call it with
their own, so the families carry identical names and bucket bounds and
worker deltas merge into the head registry without coordination.
"""

from __future__ import annotations

import threading
from collections import deque
from types import SimpleNamespace

from ..eval.harness import latency_percentile
from ..obs.metrics import (
    COUNT_BUCKETS,
    LATENCY_BUCKETS,
    VOLUME_BUCKETS,
    MetricsRegistry,
)

__all__ = ["ServiceTelemetry", "make_engine_metrics"]

#: Recent latency samples kept for the percentile window.
_LATENCY_WINDOW = 4096

#: Pipeline stages whose per-request durations get their own histograms
#: and exact percentile windows (the span's derived durations).
STAGE_NAMES = ("queue_wait", "engine", "collect")


def make_engine_metrics(registry: MetricsRegistry) -> SimpleNamespace:
    """Register (or look up) the engine-introspection metric family.

    Idempotent per registry; the returned namespace carries the live
    metric objects.  Called by the head's :class:`ServiceTelemetry` *and*
    by each pool worker against its private registry, so the families
    are born with identical names, labels, and bucket bounds — the
    precondition for :meth:`MetricsRegistry.merge`.
    """
    return SimpleNamespace(
        kernel_selections=registry.counter(
            "laca_kernel_selections_total",
            "Scatter-kernel selections by the volume switch",
            labelnames=("kernel",),
        ),
        touched_volume=registry.histogram(
            "laca_touched_volume",
            "Per-query touched volume (degree sum of nodes written) — "
            "Theorem IV.1's size-independent quantity, live",
            bounds=VOLUME_BUCKETS,
        ),
        touched_nodes=registry.histogram(
            "laca_touched_nodes",
            "Per-query count of nodes the diffusion wrote to",
            bounds=VOLUME_BUCKETS,
        ),
        query_iterations=registry.histogram(
            "laca_query_iterations",
            "Diffusion iterations per query (RWR + BDD runs summed)",
            bounds=COUNT_BUCKETS,
        ),
        frontier_peak=registry.histogram(
            "laca_frontier_peak",
            "Largest per-iteration frontier per query",
            bounds=COUNT_BUCKETS,
        ),
    )


def _by_label(metric) -> dict[str, int]:
    """``{label value: count}`` of a one-label counter, sorted by label."""
    return {key[0]: int(value) for key, value in metric.sample_items().items()}


class ServiceTelemetry:
    """Thread-safe accumulator for one :class:`ClusterService`.

    Registry metrics carry their own per-family locks; one telemetry
    lock guards the exact percentile windows.
    """

    def __init__(self, latency_window: int = _LATENCY_WINDOW) -> None:
        self._lock = threading.Lock()
        self._latencies: deque[float] = deque(maxlen=latency_window)
        self._stage_windows: dict[str, deque[float]] = {
            stage: deque(maxlen=latency_window) for stage in STAGE_NAMES
        }
        self._update_latencies: deque[float] = deque(maxlen=latency_window)

        # Bound children are resolved once, here, so recorders pay
        # dict-free fast paths.
        self.registry = MetricsRegistry("laca")
        reg = self.registry
        self._m_requests = reg.counter(
            "laca_requests_total", "Requests answered, by path", ("path",)
        )
        self._m_requests_engine = self._m_requests.labels("engine")
        self._m_requests_cache = self._m_requests.labels("cache")
        self._m_errors = reg.counter(
            "laca_errors_total", "Failed requests, by cause", ("kind",)
        )
        self._m_shed = reg.counter(
            "laca_shed_total", "Requests rejected at admission (queue full)"
        )
        self._m_deadline = reg.counter(
            "laca_deadline_misses_total",
            "Admitted requests dropped after their deadline passed in queue",
        )
        self._m_batches = reg.counter(
            "laca_batches_total", "Dispatched micro-batches"
        )
        self._m_engine_seconds = reg.counter(
            "laca_engine_seconds_total", "Wall seconds spent inside engines"
        )
        self._m_occupancy = reg.histogram(
            "laca_batch_occupancy",
            "Requests sharing one dispatched block",
            bounds=COUNT_BUCKETS,
        )
        self._m_occupancy_max = reg.gauge(
            "laca_batch_occupancy_max",
            "Most requests one dispatched block has shared",
        )
        self._m_request_seconds = reg.histogram(
            "laca_request_seconds",
            "Submit-to-resolve latency of engine-answered requests",
            bounds=LATENCY_BUCKETS,
        )
        stage_hist = reg.histogram(
            "laca_stage_seconds",
            "Per-request latency split by pipeline stage",
            bounds=LATENCY_BUCKETS,
            labelnames=("stage",),
        )
        self._m_stage = {stage: stage_hist.labels(stage) for stage in STAGE_NAMES}
        self._m_updates = reg.counter(
            "laca_updates_total", "Graph deltas applied"
        )
        self._m_update_seconds = reg.histogram(
            "laca_update_seconds",
            "Apply-plus-refresh latency of one graph delta",
            bounds=LATENCY_BUCKETS,
        )
        self._m_invalidated = reg.counter(
            "laca_cache_entries_invalidated_total",
            "Cache entries dropped by epoch advances",
        )
        self._m_worker_batches = reg.counter(
            "laca_worker_batches_total", "Shards answered per pool worker", ("worker",)
        )
        self._m_worker_seeds = reg.counter(
            "laca_worker_seeds_total", "Seeds answered per pool worker", ("worker",)
        )
        self._m_worker_restarts = reg.counter(
            "laca_worker_restarts_total",
            "Dead pool workers respawned by the pool thread",
        )
        self._m_block_retries = reg.counter(
            "laca_block_retries_total",
            "Blocks re-dispatched after losing their worker mid-flight",
        )
        self._m_wal_records = reg.counter(
            "laca_wal_records_total",
            "Graph deltas appended to the write-ahead log",
        )
        self.engine_metrics = make_engine_metrics(reg)

    # ------------------------------------------------------------------
    def record_batch(self, occupancy: int, engine_seconds: float) -> None:
        """One dispatched block answered whole, in the service's own
        process: :meth:`record_coalesced` and :meth:`record_answered`."""
        self.record_coalesced(occupancy)
        self.record_answered(occupancy, engine_seconds)

    def record_coalesced(self, occupancy: int) -> None:
        """One dispatched block: how many requests the dispatcher
        gathered into it (the pool records it once, however many shards
        it is split into)."""
        occupancy = int(occupancy)
        self._m_batches.inc()
        self._m_occupancy.observe(occupancy)
        self._m_occupancy_max.set_max(occupancy)

    def record_answered(
        self, seeds: int, engine_seconds: float, worker_id: int | None = None
    ) -> None:
        """One engine call answered ``seeds`` requests: a whole block,
        or (pool only) one shard and the worker that answered it."""
        seeds = int(seeds)
        self._m_engine_seconds.inc(engine_seconds)
        self._m_requests_engine.inc(seeds)
        if worker_id is not None:
            self._m_worker_batches.labels(worker_id).inc()
            self._m_worker_seeds.labels(worker_id).inc(seeds)

    def record_latency(self, seconds: float) -> None:
        """Submit→resolve latency of one engine-answered request."""
        seconds = float(seconds)
        with self._lock:
            self._latencies.append(seconds)
        self._m_request_seconds.observe(seconds)

    def record_span(self, span) -> None:
        """Fold one resolved request span into the per-stage views.

        Accepts anything exposing the :class:`~repro.obs.tracing.Span`
        duration properties; stages whose endpoints were never marked
        (cache hits, failures) are skipped.
        """
        total = span.total_s
        if total is not None:
            self.record_latency(total)
        durations = (
            ("queue_wait", span.queue_wait_s),
            ("engine", span.engine_s if span.dispatched is not None else None),
            ("collect", span.collect_s),
        )
        with self._lock:
            for stage, value in durations:
                if value is not None:
                    self._stage_windows[stage].append(float(value))
        for stage, value in durations:
            if value is not None:
                self._m_stage[stage].observe(value)

    def record_cache_hit(self) -> None:
        """One request resolved from the result cache (no enqueue)."""
        self._m_requests_cache.inc()

    def record_error(self, kind: str = "internal") -> None:
        """One failed request, typed by cause (engine / closed / ...)."""
        self._m_errors.labels(str(kind)).inc()

    def record_shed(self) -> None:
        """One request rejected at admission (queue depth bound hit)."""
        self._m_shed.inc()

    def record_deadline_miss(self) -> None:
        """One admitted request dropped because its deadline passed
        while it sat in the queue (never dispatched to a worker)."""
        self._m_deadline.inc()

    def record_worker_restart(self) -> None:
        """One dead pool worker respawned by the pool thread."""
        self._m_worker_restarts.inc()

    def record_block_retry(self) -> None:
        """One block re-dispatched after its worker died mid-flight."""
        self._m_block_retries.inc()

    def record_wal_append(self) -> None:
        """One graph delta appended durably to the write-ahead log."""
        self._m_wal_records.inc()

    def record_update(self, seconds: float, invalidated: int = 0) -> None:
        """One applied graph delta: apply→refresh latency and how many
        result-cache entries its epoch advance dropped."""
        seconds = float(seconds)
        with self._lock:
            self._update_latencies.append(seconds)
        self._m_updates.inc()
        self._m_update_seconds.observe(seconds)
        self._m_invalidated.inc(int(invalidated))

    def merge_engine_delta(self, families) -> None:
        """Fold a worker registry's :meth:`~MetricsRegistry.drain` home."""
        if families:
            self.registry.merge(families)

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Flat stats dict (the service merges in cache stats).

        Latency percentiles cover the most recent samples (the window
        size); every other figure is read from the registry and covers
        the service's whole lifetime.
        """
        with self._lock:
            latencies = list(self._latencies)
            stage_windows = {
                stage: list(window)
                for stage, window in self._stage_windows.items()
            }
            update_latencies = list(self._update_latencies)
        requests = _by_label(self._m_requests)
        served = requests.get("engine", 0)
        cache_served = requests.get("cache", 0)
        errors_by_kind = _by_label(self._m_errors)
        batches = int(self._m_batches.value)
        engine_seconds = self._m_engine_seconds.value
        worker_batches = _by_label(self._m_worker_batches)
        worker_seeds = _by_label(self._m_worker_seeds)
        stats = {
            "requests": served + cache_served,
            "engine_served": served,
            "cache_served": cache_served,
            "errors": sum(errors_by_kind.values()),
            "errors_by_kind": errors_by_kind,
            "batches": batches,
            "mean_batch_occupancy": round(served / batches if batches else 0.0, 3),
            "max_batch_occupancy": int(self._m_occupancy_max.value),
            "engine_seconds": round(engine_seconds, 6),
            "seeds_per_s": round(
                served / engine_seconds if engine_seconds > 0.0 else 0.0, 1
            ),
            "p50_latency_s": round(latency_percentile(latencies, 50.0), 6),
            "p95_latency_s": round(latency_percentile(latencies, 95.0), 6),
            "updates": int(self._m_updates.value),
            "update_seconds": self._m_update_seconds.summary()["sum"],
            "p50_update_s": round(latency_percentile(update_latencies, 50.0), 6),
            "entries_invalidated": int(self._m_invalidated.value),
            # No entry outlives its epoch; perfbench/workloads.py and
            # perfbench/layers.py still read this key.
            "entries_promoted": 0,
            "shed": int(self._m_shed.value),
            "deadline_misses": int(self._m_deadline.value),
            "worker_occupancy": {
                int(worker): {"batches": count, "seeds": worker_seeds.get(worker, 0)}
                for worker, count in sorted(
                    worker_batches.items(), key=lambda item: int(item[0])
                )
            },
            "worker_restarts": int(self._m_worker_restarts.value),
            "block_retries": int(self._m_block_retries.value),
            "wal_records": int(self._m_wal_records.value),
        }
        for stage in STAGE_NAMES:
            window = stage_windows[stage]
            stats[f"p50_{stage}_s"] = round(latency_percentile(window, 50.0), 6)
            stats[f"p95_{stage}_s"] = round(latency_percentile(window, 95.0), 6)
        return stats
