"""End-to-end observability through the serving stack.

The unit behavior of the metric types lives in ``tests/obs``; these
tests check the *wiring*: services populate the registry, introspection
rides home from pool workers, spans hit the trace log, and the ``stats``
surface keeps its pinned shape.
"""

import json

import pytest

from repro.core.pipeline import LACA
from repro.obs import TraceLog
from repro.serving import ClusterService
from repro.serving.telemetry import ServiceTelemetry

#: Golden stats() keys: additions are fine (append here), but removing
#: or renaming any of these breaks operator dashboards and the harness's
#: p50/p95 naming alignment — treat this list as an API.
EXPECTED_STATS_KEYS = {
    "requests",
    "engine_served",
    "cache_served",
    "errors",
    "errors_by_kind",
    "batches",
    "mean_batch_occupancy",
    "max_batch_occupancy",
    "engine_seconds",
    "seeds_per_s",
    "p50_latency_s",
    "p95_latency_s",
    "updates",
    "update_seconds",
    "p50_update_s",
    "entries_invalidated",
    "entries_promoted",
    "shed",
    "deadline_misses",
    "worker_occupancy",
    "p50_queue_wait_s",
    "p95_queue_wait_s",
    "p50_engine_s",
    "p95_engine_s",
    "p50_collect_s",
    "p95_collect_s",
    "worker_restarts",
    "block_retries",
    "wal_records",
}


@pytest.fixture(scope="module")
def fitted_model(small_sbm_module):
    return LACA().fit(small_sbm_module)


@pytest.fixture(scope="module")
def small_sbm_module():
    from repro.graphs.generators import SBMConfig, attributed_sbm

    config = SBMConfig(
        n=120, n_communities=3, avg_degree=8.0, mixing=0.2, d=24,
        attribute_noise=0.6, topic_overlap=0.2,
    )
    return attributed_sbm(config, seed=42, name="sbm-small")


class TestTelemetrySnapshotShape:
    def test_golden_key_set(self):
        assert set(ServiceTelemetry().snapshot()) == EXPECTED_STATS_KEYS

    def test_errors_by_kind_sums_to_errors(self):
        telemetry = ServiceTelemetry()
        telemetry.record_error("engine")
        telemetry.record_error("engine")
        telemetry.record_error("closed")
        telemetry.record_error()  # default kind
        snapshot = telemetry.snapshot()
        assert snapshot["errors"] == 4
        assert snapshot["errors_by_kind"] == {
            "closed": 1, "engine": 2, "internal": 1,
        }
        assert sum(snapshot["errors_by_kind"].values()) == snapshot["errors"]
        # The registry view agrees, per kind.
        registry_errors = telemetry.registry.get(
            "laca_errors_total"
        ).sample_items()
        assert registry_errors == {
            ("closed",): 1.0, ("engine",): 2.0, ("internal",): 1.0,
        }


class TestInProcessServiceObservability:
    def test_registry_populated_and_trace_ids_issued(self, fitted_model, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        with TraceLog(trace_path) as trace_log:
            with ClusterService(
                fitted_model, max_batch=8, max_wait_s=0.005,
                trace_log=trace_log,
            ) as service:
                futures = [service.submit(seed, 12) for seed in range(10)]
                for future in futures:
                    future.result(timeout=30.0)
                # Resubmit one seed: resolves from the cache.
                hit = service.submit(0, 12)
                hit.result(timeout=30.0)
                stats = service.stats()
                snap = service.telemetry.registry.snapshot()
                text = service.telemetry.registry.to_prometheus_text()

        trace_ids = {future.trace_id for future in futures + [hit]}
        assert len(trace_ids) == 11  # unique per request, cache hits too

        assert snap["laca_requests_total{path=engine}"] == 10.0
        assert snap["laca_requests_total{path=cache}"] == 1.0
        assert snap["laca_request_seconds"]["count"] == 10
        # Every engine request contributes one introspection sample.
        assert snap["laca_touched_volume"]["count"] == 10
        assert snap["laca_touched_nodes"]["count"] == 10
        assert snap["laca_query_iterations"]["count"] == 10
        # The volume switch picked at least one kernel.
        kernels = [
            key for key in snap if key.startswith("laca_kernel_selections_total")
        ]
        assert kernels and sum(snap[key] for key in kernels) > 0
        # Cache gauges are pulled by hook at scrape time.
        assert snap["laca_cache_entries"] == 10.0
        assert snap["laca_cache_hits"] == 1.0
        assert snap["laca_epoch"] == 0.0
        # Prometheus text carries the same families.
        assert "# TYPE laca_stage_seconds histogram" in text
        assert 'laca_requests_total{path="engine"} 10' in text

        # Exact per-stage percentiles surfaced in stats().
        assert stats["p50_queue_wait_s"] > 0.0
        assert stats["p50_engine_s"] > 0.0
        assert stats["requests"] == 11

        events = [
            json.loads(line) for line in trace_path.read_text().splitlines()
        ]
        requests = [event for event in events if event["event"] == "request"]
        assert len(requests) == 11
        paths = {event["path"] for event in requests}
        assert paths == {"engine", "cache"}
        for event in requests:
            if event["path"] == "engine":
                assert event["queue_wait_s"] >= 0.0
                assert event["engine_s"] > 0.0
                assert event["total_s"] >= event["engine_s"]

    def test_stats_keys_stable_through_service(self, fitted_model):
        with ClusterService(fitted_model, max_wait_s=0.001) as service:
            service.submit(1, 10).result(timeout=30.0)
            stats = service.stats()
        service_keys = {
            "model", "config_digest", "max_batch", "max_wait_s", "epoch",
            "cache", "cache_hit_rate", "workers", "max_pending",
            "deadline_s", "max_retries", "restart_budget", "pending",
            "workers_alive", "inflight_blocks", "fallback_active",
        }
        assert set(stats) == EXPECTED_STATS_KEYS | service_keys


class TestPoolObservability:
    def test_worker_metrics_merge_into_head_registry(self, fitted_model, tmp_path):
        trace_path = tmp_path / "pool-trace.jsonl"
        with TraceLog(trace_path) as trace_log:
            with ClusterService(
                fitted_model, workers=2, max_batch=8, max_wait_s=0.005,
                trace_log=trace_log,
            ) as service:
                futures = [service.submit(seed, 12) for seed in range(12)]
                for future in futures:
                    future.result(timeout=60.0)
                snap = service.telemetry.registry.snapshot()
                stats = service.stats()

        # Engine introspection happened in worker processes; the deltas
        # rode the result queue home and merged here.
        assert snap["laca_touched_volume"]["count"] == 12
        assert snap["laca_query_iterations"]["count"] == 12
        kernels = [
            key for key in snap if key.startswith("laca_kernel_selections_total")
        ]
        assert kernels and sum(snap[key] for key in kernels) > 0
        # Per-worker ledgers exist in both views.
        worker_keys = [
            key for key in snap if key.startswith("laca_worker_seeds_total")
        ]
        assert worker_keys
        assert sum(snap[key] for key in worker_keys) == 12
        assert sum(
            entry["seeds"] for entry in stats["worker_occupancy"].values()
        ) == 12
        # Pool gauges are pulled at scrape time.
        assert snap["laca_workers_alive"] == 2.0
        assert snap["laca_pending_requests"] == 0.0

        events = [
            json.loads(line) for line in trace_path.read_text().splitlines()
        ]
        requests = [event for event in events if event["event"] == "request"]
        assert len(requests) == 12
        for event in requests:
            assert "worker_id" in event
            assert event["engine_s"] > 0.0

    def test_update_event_logged_on_epoch_advance(self, small_sbm_module, tmp_path):
        from repro.graphs.store import GraphDelta, GraphStore

        model = LACA().fit(small_sbm_module)
        store = GraphStore(small_sbm_module, history=4)
        trace_path = tmp_path / "update-trace.jsonl"
        with TraceLog(trace_path) as trace_log:
            with ClusterService(
                model, store=store, max_wait_s=0.001, trace_log=trace_log,
            ) as service:
                service.submit(0, 10).result(timeout=30.0)
                service.apply_update(GraphDelta(add_edges=[(0, 57)]))
                service.submit(0, 10).result(timeout=30.0)
                assert service.stats()["epoch"] == 1
        events = [
            json.loads(line) for line in trace_path.read_text().splitlines()
        ]
        advances = [
            event for event in events if event["event"] == "epoch_advance"
        ]
        assert len(advances) == 1
        assert advances[0]["epoch"] == 1


class TestFrontEndIntrospectionParity:
    def test_both_front_ends_record_the_same_introspection(self, fitted_model):
        """The dispatcher thread (``workers=0``) and a pool worker
        (``workers=1``) answer through the same code, so one seed stream
        leaves identical engine introspection in both head registries."""
        families = (
            "laca_touched_nodes",
            "laca_touched_volume",
            "laca_query_iterations",
            "laca_frontier_peak",
        )
        snapshots = []
        for workers in (0, 1):
            with ClusterService(
                fitted_model, workers=workers, max_batch=1, cache_size=0
            ) as service:
                futures = [service.submit(seed, 12) for seed in range(24)]
                for future in futures:
                    future.result(timeout=60.0)
                snap = service.telemetry.registry.snapshot()
            snapshots.append(
                {
                    key: value
                    for key, value in snap.items()
                    if key in families
                    or key.startswith("laca_kernel_selections_total{")
                }
            )
        in_process, pool = snapshots
        assert set(families) <= set(in_process)
        assert in_process["laca_touched_volume"]["count"] == 24
        assert any(key.startswith("laca_kernel_selections") for key in in_process)
        assert in_process == pool
