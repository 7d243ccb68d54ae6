"""Bench: micro-batched serving vs sequential queries (the serving win).

Eight closed-loop submitter threads push seed queries through one
:class:`ClusterService`; the dispatcher coalesces whatever is queued into
blocks and answers each block with one shared traversal.  The headline
assertion is the serving subsystem's acceptance bar: the coalesced
service must observe mean batch occupancy > 1 (requests really share
blocks) and clear the seeds/sec of the same seeds answered by sequential
``LACA.cluster`` calls.  The result cache is disabled throughout so the
comparison measures scheduling, not memoization.

A same-run ratio pins the saturated split: on the arxiv analog at scale
1, where every query reaches all n, the default service (one routing
thread per usable CPU) must answer a closed loop of 16
outstanding queries at least 1.1× as fast as the same service held to
one CPU, with bitwise the same answers.

The last test holds the README's tracing-overhead claim: with every span
written to a :class:`TraceLog`, the log costs under 3% of a drain of the
Fig. 10 scalability graph (the arxiv analog at scale 21, n = 168k).
"""

import threading
import time
from concurrent.futures import FIRST_COMPLETED, wait

import numpy as np
import pytest

from repro.core.config import LacaConfig
from repro.core.pipeline import LACA
from repro.graphs.datasets import load_dataset
import repro.serving.service as service_module
from repro.parallel import usable_cpus
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


SPLIT_SCALE = 1.0
SPLIT_WINDOW = 16
SPLIT_SEEDS = 128
SPLIT_ROUNDS = 9
#: Between the readings on a shared 2-CPU host: a service that does not
#: split read 0.93–1.07×, the split 1.18–1.42× (its low end inside full
#: test-suite runs).
SPLIT_BAR = 1.1


def _closed_loop(service, seeds, window):
    """Keep ``window`` queries outstanding until every seed is answered;
    returns queries per second and each seed's answer."""
    pending, answers = {}, {}
    queue = iter(seeds)

    def submit_next():
        seed = next(queue, None)
        if seed is not None:
            pending[service.submit(seed, CLUSTER_SIZE)] = seed

    start = time.perf_counter()
    for _ in range(window):
        submit_next()
    while pending:
        done, _ = wait(pending, return_when=FIRST_COMPLETED)
        for future in done:
            answers[pending.pop(future)] = future.result()
            submit_next()
    return len(seeds) / (time.perf_counter() - start), answers


@pytest.mark.skipif(usable_cpus() < 2, reason="needs at least 2 usable CPUs")
def test_saturated_blocks_split_over_every_cpu(monkeypatch):
    """Same-run ratio, alternating best-of-9 rounds: the default service
    against one built to see a single CPU, on saturating blocks.

    A shared host lends its second CPU only part of the time, and that
    costs the two-thread service more than the one-thread one, so each
    side keeps its best round.  A service that does not split its blocks
    reads about 1.0× on the same measure."""
    graph = load_dataset("arxiv", scale=SPLIT_SCALE)
    model = LACA(LacaConfig(metric="cosine", diffusion="greedy")).fit(graph)
    rng = np.random.default_rng(5)
    seeds = [int(seed) for seed in rng.choice(graph.n, SPLIT_SEEDS, replace=False)]
    expected = {seed: model.cluster(seed, CLUSTER_SIZE) for seed in seeds}
    with monkeypatch.context() as patch:
        patch.setattr(service_module, "usable_cpus", lambda: 1)
        one_cpu = ClusterService(model, cache_size=0)
    with one_cpu, ClusterService(model, cache_size=0) as every_cpu:
        sides = [("one", one_cpu), ("every", every_cpu)]
        for _, service in sides:  # warm up
            _closed_loop(service, seeds[:SPLIT_WINDOW], SPLIT_WINDOW)
        best = {"every": 0.0, "one": 0.0}
        for round_ in range(SPLIT_ROUNDS):
            for name, service in sides[:: -1 if round_ % 2 else 1]:
                rate, answers = _closed_loop(service, seeds, SPLIT_WINDOW)
                best[name] = max(best[name], rate)
                for seed, answer in answers.items():
                    np.testing.assert_array_equal(answer, expected[seed])
    ratio = best["every"] / best["one"]
    print(
        f"saturated split: {best['every']:.1f} q/s on {usable_cpus()} CPUs "
        f"vs {best['one']:.1f} q/s on one ({ratio:.2f}x)"
    )
    assert ratio >= SPLIT_BAR, best


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
