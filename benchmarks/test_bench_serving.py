"""Bench: micro-batched serving vs sequential queries (the serving win).

Eight closed-loop submitter threads push seed queries through one
:class:`ClusterService`; the dispatcher coalesces whatever is queued into
blocks and answers each block with one shared traversal.  The headline
assertion is the serving subsystem's acceptance bar: the coalesced
service must observe mean batch occupancy > 1 (requests really share
blocks) and clear the seeds/sec of the same seeds answered by sequential
``LACA.cluster`` calls.  The result cache is disabled throughout so the
comparison measures scheduling, not memoization.

The last test holds the README's tracing-overhead claim: with every span
written to a :class:`TraceLog`, the log costs under 3% of a drain of the
Fig. 10 scalability graph (the arxiv analog at scale 21, n = 168k).
"""

import threading
import time
from concurrent.futures import wait

import numpy as np
import pytest

from repro.core.config import LacaConfig
from repro.core.pipeline import LACA
from repro.graphs.datasets import load_dataset
from repro.obs import TraceLog
from repro.serving import ClusterService

N_THREADS = 8
N_SEEDS = 128
CLUSTER_SIZE = 20
REPEATS = 3

#: The overhead claim is made at the paper's operating point.  A span
#: write costs ~30 µs whatever the graph; a query costs ~22 ms here but
#: under 1 ms at ``bench_scale``, where the same log takes a larger share.
TRACE_SCALE = 21.0
TRACE_REQUESTS = 128
TRACE_OVERHEAD_BAR = 0.03


@pytest.fixture(scope="module")
def setup(bench_scale):
    graph = load_dataset("arxiv", scale=bench_scale)
    # Same engine on both sides (greedy / its block form), so the ratio
    # isolates the scheduler, as in benchmarks/test_bench_batch.py.
    model = LACA(LacaConfig(metric="cosine", diffusion="greedy")).fit(graph)
    seeds = np.random.default_rng(0).choice(graph.n, size=N_SEEDS, replace=False)
    seeds = [int(seed) for seed in seeds]
    for seed in seeds[:8]:  # warm caches
        model.cluster(seed, CLUSTER_SIZE)
    return model, seeds


def _sequential_rate(model, seeds):
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        for seed in seeds:
            model.cluster(seed, CLUSTER_SIZE)
        best = min(best, time.perf_counter() - start)
    return len(seeds) / best


def _serve_once(model, seeds):
    """One closed-loop run: N_THREADS submitters over disjoint seed shards."""
    with ClusterService(
        model, max_batch=N_THREADS, max_wait_s=0.001, cache_size=0
    ) as service:
        shards = [seeds[offset::N_THREADS] for offset in range(N_THREADS)]

        def worker(shard):
            for seed in shard:
                service.cluster(seed, CLUSTER_SIZE)

        threads = [
            threading.Thread(target=worker, args=(shard,)) for shard in shards
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
        stats = service.stats()
    return len(seeds) / elapsed, stats


def _service_rate(model, seeds):
    best_rate, best_stats = 0.0, None
    for _ in range(REPEATS):
        rate, stats = _serve_once(model, seeds)
        if rate > best_rate:
            best_rate, best_stats = rate, stats
    return best_rate, best_stats


def test_bench_serving_throughput(benchmark, setup):
    model, seeds = setup
    rate, _stats = benchmark.pedantic(
        _serve_once, args=(model, seeds), rounds=1, iterations=1
    )
    assert rate > 0.0


def test_coalesced_service_beats_sequential(setup):
    """Acceptance bar: 8 submitter threads coalesce (occupancy > 1) and
    outrun the same seeds served by sequential cluster() calls."""
    model, seeds = setup
    sequential = _sequential_rate(model, seeds)
    served, stats = _service_rate(model, seeds)
    assert stats["mean_batch_occupancy"] > 1.0, stats
    assert served > sequential, (
        f"service {served:.0f} seeds/s vs sequential {sequential:.0f} seeds/s "
        f"(occupancy {stats['mean_batch_occupancy']:.2f})"
    )


def test_telemetry_accounts_every_request(setup):
    model, seeds = setup
    _rate, stats = _serve_once(model, seeds)
    assert stats["engine_served"] == N_SEEDS
    assert stats["requests"] == N_SEEDS
    assert stats["p95_latency_s"] >= stats["p50_latency_s"] > 0.0


@pytest.fixture(scope="module")
def scalability_setup():
    graph = load_dataset("arxiv", scale=TRACE_SCALE)
    model = LACA(LacaConfig(metric="cosine", diffusion="greedy")).fit(graph)
    seeds = np.random.default_rng(4).choice(graph.n, TRACE_REQUESTS)
    return model, [int(seed) for seed in seeds]


class _TimedTraceLog(TraceLog):
    """A full-rate TraceLog that also records how long each span took."""

    def __init__(self, path):
        super().__init__(path, sample_rate=1.0)
        self.span_seconds = []

    def record_span(self, span):
        start = time.perf_counter()
        logged = super().record_span(span)
        self.span_seconds.append(time.perf_counter() - start)
        return logged


def test_full_tracing_costs_under_3pct_at_scale(scalability_setup, tmp_path):
    """Every span logged costs under 3% of the drain's wall time.

    Spans are logged on the thread that resolves each request, before
    its future resolves, so the time inside the log is what tracing adds
    to the drain.  It is timed within one drain because an A/B of drains
    with and without the log cannot resolve 3% on a shared 2-CPU host:
    identical drains of this graph spread by ±15% there.
    """
    model, seeds = scalability_setup
    with _TimedTraceLog(tmp_path / "trace.jsonl") as trace_log, ClusterService(
        model, max_batch=32, max_wait_s=0.002, cache_size=0,
        trace_log=trace_log,
    ) as service:
        wait([service.submit(seed, CLUSTER_SIZE) for seed in seeds[:32]])
        trace_log.span_seconds.clear()  # time only the warmed service
        start = time.perf_counter()
        wait([service.submit(seed, CLUSTER_SIZE) for seed in seeds])
        drain_s = time.perf_counter() - start
    assert len(trace_log.span_seconds) == len(seeds)
    share = sum(trace_log.span_seconds) / drain_s
    assert share <= TRACE_OVERHEAD_BAR, (
        f"{len(seeds)} spans took {sum(trace_log.span_seconds) * 1e3:.1f} ms "
        f"of a {drain_s * 1e3:.0f} ms drain: {share:.1%} (> "
        f"{TRACE_OVERHEAD_BAR:.0%})"
    )
