#!/usr/bin/env python
"""Benchmark report: record the serving-path performance trajectory.

Runs the performance suite that matters for the serving north star and
writes one JSON document (``BENCH_pr9.json`` by default) so the perf
trajectory is tracked in-repo instead of vanishing with each session:

* single-seed queries/sec — frontier kernels + workspace vs. the
  retained pre-PR3 reference kernels, on the Fig. 10 scalability graph
  at default ε (the PR 3 acceptance evidence) and at the registered
  scale;
* batched seeds/sec across block widths (the PR 1 win, re-measured);
* serving latency — p50/p95 and occupancy through a live
  :class:`ClusterService` under concurrent load (the PR 2 win);
* per-engine iteration work — the Theorem IV.1 cost-model numbers;
* update throughput — incremental ``GraphStore.apply`` +
  ``LACA.refresh`` vs. the full-refit cold path, post-update query
  latency, and cache invalidation behavior (the PR 5 acceptance
  evidence: ≥ 5× for single-edge deltas on the Fig. 10 graph);
* pool throughput — :class:`ClusterService` with ``workers`` (worker
  processes over a shared-memory graph) vs. ``workers=0`` at 256
  in-flight requests on the Fig. 10 graph, with a bitwise-identity
  check over every answer (the PR 6 acceptance evidence; the ≥ 3× bar
  itself is host-dependent — ``cpu_count`` is recorded alongside);
* observability overhead — the same serving drain with full tracing
  (every span written to a JSONL trace log) vs. tracing off, on the
  Fig. 10 graph (the PR 7 acceptance evidence: < 3% seeds/s cost);
* fault tolerance — WAL durability cost per delta (no log / buffered /
  fsync-per-record) and the pool's retry path under an injected worker
  kill: p95 latency and seeds/s with one deterministic worker death
  mid-drain, with a bitwise-identity check vs. the undisturbed run
  (the PR 8 acceptance evidence);
* scenario replay — a seeded 21-epoch dynamic-SBM community-tracking
  trace (churn, births/deaths, drift, one merge, one split) replayed
  as a mixed read/write stream through both the single-process service
  and the pool: update throughput, query p50/p95, cache hit and
  invalidation rates, per-epoch tracking recall, and a bitwise
  verify-vs-refit at every epoch (the PR 9 acceptance evidence).

Usage::

    PYTHONPATH=src python scripts/bench_report.py              # full, ~3 min
    PYTHONPATH=src python scripts/bench_report.py --smoke      # CI, ~40 s
    PYTHONPATH=src python scripts/bench_report.py --out X.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from concurrent.futures import wait

import numpy as np

import repro.core.laca as laca_mod
from repro.core.config import LacaConfig
from repro.core.laca import laca_scores
from repro.core.pipeline import LACA
from repro.diffusion import reference as ref
from repro.eval.harness import latency_percentile
from repro.graphs import (
    AttributedGraph,
    GraphDelta,
    GraphStore,
    random_absent_edges,
)
from repro.graphs.datasets import load_dataset
from repro.serving import ClusterService

REFERENCE_PATCHES = {
    "greedy_diffuse": (
        lambda g, f, alpha, epsilon, workspace=None, f_support=None:
        ref.reference_greedy_diffuse(g, f, alpha, epsilon)
    ),
    "nongreedy_diffuse": (
        lambda g, f, alpha, epsilon, workspace=None, f_support=None:
        ref.reference_nongreedy_diffuse(g, f, alpha, epsilon)
    ),
    "adaptive_diffuse": (
        lambda g, f, alpha, sigma, epsilon, workspace=None, f_support=None:
        ref.reference_adaptive_diffuse(g, f, alpha, sigma, epsilon)
    ),
    "push_diffuse": (
        lambda g, f, alpha, epsilon, workspace=None, f_support=None:
        ref.reference_push_diffuse(g, f, alpha, epsilon)
    ),
}


class _reference_kernels:
    """Context manager swapping laca's engines for the pre-PR3 kernels."""

    def __enter__(self):
        self._saved = {name: getattr(laca_mod, name) for name in REFERENCE_PATCHES}
        for name, patched in REFERENCE_PATCHES.items():
            setattr(laca_mod, name, patched)

    def __exit__(self, *_exc):
        for name, saved in self._saved.items():
            setattr(laca_mod, name, saved)


def _best_of(repeats, fn):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_single_seed(scale: float, engines, n_seeds: int, repeats: int) -> dict:
    graph = load_dataset("arxiv", scale=scale)
    seeds = [
        int(s)
        for s in np.random.default_rng(0).choice(graph.n, n_seeds, replace=False)
    ]
    out = {
        "graph": "arxiv",
        "scale": scale,
        "n": graph.n,
        "nnz": int(graph.adjacency.nnz),
        "epsilon": LacaConfig().epsilon,
        "n_seeds": n_seeds,
        "engines": {},
    }
    for engine in engines:
        config = LacaConfig(metric="cosine", diffusion=engine)
        model = LACA(config).fit(graph)
        workspace = model.make_workspace()

        def frontier():
            for seed in seeds:
                laca_scores(
                    graph, seed, config=config, tnam=model.tnam, workspace=workspace
                )

        def reference():
            for seed in seeds:
                laca_scores(graph, seed, config=config, tnam=model.tnam)

        frontier()  # warm
        new_s = _best_of(repeats, frontier)
        with _reference_kernels():
            reference()  # warm
            old_s = _best_of(max(1, repeats - 1), reference)
        out["engines"][engine] = {
            "reference_ms_per_query": round(old_s / n_seeds * 1e3, 3),
            "frontier_ms_per_query": round(new_s / n_seeds * 1e3, 3),
            "reference_qps": round(n_seeds / old_s, 1),
            "frontier_qps": round(n_seeds / new_s, 1),
            "speedup": round(old_s / new_s, 2),
        }
    return out


def bench_batched(scale: float, n_seeds: int) -> dict:
    graph = load_dataset("arxiv", scale=scale)
    model = LACA(LacaConfig(metric="cosine", diffusion="greedy")).fit(graph)
    seeds = [
        int(s)
        for s in np.random.default_rng(1).choice(graph.n, n_seeds, replace=False)
    ]
    model.cluster_many(seeds[:4], size=20)  # warm
    rates = {}
    for batch in (1, 16, 64):
        elapsed = _best_of(
            2, lambda: model.cluster_many(seeds, size=20, batch_size=batch)
        )
        rates[str(batch)] = round(len(seeds) / elapsed, 1)
    return {
        "graph": "arxiv",
        "scale": scale,
        "engine": "greedy",
        "seeds_per_s_by_batch": rates,
        "batch64_vs_sequential": round(rates["64"] / rates["1"], 2),
    }


def bench_serving(scale: float, n_requests: int) -> dict:
    graph = load_dataset("arxiv", scale=scale)
    model = LACA(LacaConfig(metric="cosine", diffusion="greedy")).fit(graph)
    rng = np.random.default_rng(2)
    seeds = rng.choice(graph.n, size=n_requests, replace=True)
    with ClusterService(model, max_batch=32, max_wait_s=0.002, cache_size=0) as svc:
        futures = [svc.submit(int(s), 20) for s in seeds]
        wait(futures)
        stats = svc.stats()
    return {
        "graph": "arxiv",
        "scale": scale,
        "requests": n_requests,
        "p50_latency_ms": round(stats["p50_latency_s"] * 1e3, 3),
        "p95_latency_ms": round(stats["p95_latency_s"] * 1e3, 3),
        "mean_batch_occupancy": stats["mean_batch_occupancy"],
        "seeds_per_s": stats["seeds_per_s"],
    }


def bench_engine_work(scale: float) -> dict:
    """Theorem IV.1 cost-model numbers per engine (iterations / work)."""
    graph = load_dataset("arxiv", scale=scale)
    per_engine = {}
    for engine in ("greedy", "nongreedy", "adaptive", "push"):
        config = LacaConfig(metric="cosine", diffusion=engine)
        model = LACA(config).fit(graph)
        result = laca_scores(graph, 123, config=config, tnam=model.tnam)
        per_engine[engine] = {
            "rwr_iterations": int(result.rwr.iterations),
            "rwr_work": round(float(result.rwr.work), 1),
            "bdd_iterations": int(result.bdd.iterations),
            "bdd_work": round(float(result.bdd.work), 1),
            "score_support": int(result.support_size),
            "work_bound": round(1.0 / ((1.0 - config.alpha) * config.epsilon), 1),
        }
    return {"graph": "arxiv", "scale": scale, "seed": 123, "engines": per_engine}


def bench_updates(scale: float, n_deltas: int, n_queries: int) -> dict:
    """Incremental update throughput vs. the full-refit cold path, plus
    post-update serving latency and cache invalidation behavior."""
    graph = load_dataset("arxiv", scale=scale)
    config = LacaConfig(metric="cosine", diffusion="greedy")
    model = LACA(config).fit(graph)
    rng = np.random.default_rng(5)

    # The pre-store cold path: rebuild the graph object from the full
    # edge list and re-run Algo 3 (same measurement as
    # benchmarks/test_bench_update.py, which gates the 5x bar on it).
    edges = graph.edge_list()
    start = time.perf_counter()
    rebuilt = AttributedGraph.from_edges(
        graph.n, edges, attributes=graph.attributes,
        communities=graph.communities, name=graph.name,
    )
    LACA(config).fit(rebuilt)
    refit_s = time.perf_counter() - start

    # Incremental single-edge deltas: store.apply + model.refresh.
    store = GraphStore(graph)
    model.refresh(store)
    pairs = random_absent_edges(graph, n_deltas, rng)
    start = time.perf_counter()
    for u, v in pairs:
        store.apply(GraphDelta(add_edges=[(u, v)]))
        model.refresh(store)
    per_delta_s = (time.perf_counter() - start) / len(pairs)

    # Post-update serving: warm a cache, apply one more delta through
    # the live service, re-ask the same queries.
    seeds = rng.choice(store.head.n, size=n_queries, replace=True)
    with ClusterService(
        model, store=store, max_batch=32, max_wait_s=0.002, cache_size=4096
    ) as service:
        wait([service.submit(int(s), 20) for s in seeds])
        update_stats = service.apply_update(
            GraphDelta(add_edges=random_absent_edges(store.head, 1, rng))
        )
        latencies = []
        for s in seeds:
            begin = time.perf_counter()
            service.cluster(int(s), 20)
            latencies.append(time.perf_counter() - begin)
        stats = service.stats()
    reconciled = (
        update_stats["entries_promoted"] + update_stats["entries_invalidated"]
    )
    return {
        "graph": "arxiv",
        "scale": scale,
        "n": store.head.n,
        "nnz": int(store.head.adjacency.nnz),
        "full_refit_s": round(refit_s, 3),
        "single_edge_deltas": len(pairs),
        "incremental_ms_per_delta": round(per_delta_s * 1e3, 3),
        "deltas_per_s": round(1.0 / per_delta_s, 1),
        "speedup_vs_refit": round(refit_s / per_delta_s, 1),
        "post_update_query_p50_ms": round(
            latency_percentile(latencies, 50.0) * 1e3, 3
        ),
        "post_update_query_p95_ms": round(
            latency_percentile(latencies, 95.0) * 1e3, 3
        ),
        "update_latency_s": update_stats["update_s"],
        "entries_promoted": update_stats["entries_promoted"],
        "entries_invalidated": update_stats["entries_invalidated"],
        "invalidation_rate": round(
            update_stats["entries_invalidated"] / reconciled, 4
        ) if reconciled else 0.0,
        "post_update_cache_served": stats["cache_served"],
    }


def bench_pool(scale: float, n_requests: int, workers: int) -> dict:
    """Pool vs. single-process throughput at ``n_requests`` in-flight,
    plus the bitwise-identity check over every answer (PR 6 evidence).

    The speedup is whatever the host's cores allow — ``cpu_count`` is
    recorded so a 1-core CI number is never mistaken for a regression.
    """
    graph = load_dataset("arxiv", scale=scale)
    model = LACA(LacaConfig(metric="cosine", diffusion="greedy")).fit(graph)
    seeds = [
        int(s)
        for s in np.random.default_rng(3).choice(
            graph.n, size=n_requests, replace=True
        )
    ]

    def drain(service):
        start = time.perf_counter()
        futures = [service.submit(seed, 20) for seed in seeds]
        wait(futures)
        elapsed = time.perf_counter() - start
        return [future.result() for future in futures], elapsed

    with ClusterService(
        model, max_batch=32, max_wait_s=0.002, cache_size=0
    ) as service:
        drain(service)  # warm
        single, single_s = drain(service)
    with ClusterService(
        model, workers=workers, max_batch=32, max_wait_s=0.002, cache_size=0
    ) as pool:
        drain(pool)  # warm (workers touch their shared pages)
        pooled, pool_s = drain(pool)
        stats = pool.stats()
    return {
        "graph": "arxiv",
        "scale": scale,
        "requests_in_flight": n_requests,
        "workers": workers,
        "cpu_count": os.cpu_count(),
        "bitwise_identical": all(
            np.array_equal(a, b) for a, b in zip(single, pooled)
        ),
        "single_process_s": round(single_s, 3),
        "pool_s": round(pool_s, 3),
        "single_process_seeds_per_s": round(n_requests / single_s, 1),
        "pool_seeds_per_s": round(n_requests / pool_s, 1),
        "pool_speedup": round(single_s / pool_s, 2),
        "worker_occupancy": stats["worker_occupancy"],
        "shed": stats["shed"],
        "deadline_misses": stats["deadline_misses"],
    }


def bench_observability(scale: float, n_requests: int, repeats: int) -> dict:
    """Serving throughput with tracing fully on vs. off (PR 7 evidence).

    "On" is the worst case an operator can configure: every request span
    written to the JSONL trace log (``sample_rate=1.0``), metrics
    registry live (it always is).  "Off" is the same service without a
    trace log.  Best-of-``repeats`` drains keep scheduler noise out of
    the comparison; the acceptance bar is < 3% seeds/s overhead.
    """
    import tempfile

    from repro.obs import TraceLog

    graph = load_dataset("arxiv", scale=scale)
    model = LACA(LacaConfig(metric="cosine", diffusion="greedy")).fit(graph)
    seeds = [
        int(s)
        for s in np.random.default_rng(4).choice(
            graph.n, size=n_requests, replace=True
        )
    ]

    def drain_once(trace_log) -> float:
        with ClusterService(
            model, max_batch=32, max_wait_s=0.002, cache_size=0,
            trace_log=trace_log,
        ) as service:
            wait([service.submit(seed, 20) for seed in seeds])  # warm
            start = time.perf_counter()
            wait([service.submit(seed, 20) for seed in seeds])
            return time.perf_counter() - start

    off_s = min(drain_once(None) for _ in range(repeats))
    with tempfile.TemporaryDirectory() as tmp:
        spans_written = 0
        on_s = float("inf")
        for index in range(repeats):
            with TraceLog(
                os.path.join(tmp, f"trace-{index}.jsonl"), sample_rate=1.0
            ) as trace_log:
                on_s = min(on_s, drain_once(trace_log))
                spans_written = trace_log.spans_sampled
    off_rate = n_requests / off_s
    on_rate = n_requests / on_s
    return {
        "graph": "arxiv",
        "scale": scale,
        "requests": n_requests,
        "repeats": repeats,
        "trace_sample_rate": 1.0,
        "spans_written_per_drain": spans_written,
        "tracing_off_seeds_per_s": round(off_rate, 1),
        "tracing_on_seeds_per_s": round(on_rate, 1),
        "overhead_pct": round((off_rate - on_rate) / off_rate * 100.0, 2),
    }


def bench_fault_tolerance(
    scale: float, n_deltas: int, n_requests: int, workers: int
) -> dict:
    """WAL durability cost and the retry path's latency (PR 8 evidence).

    The WAL rows isolate the logging cost of ``GraphStore.apply``: the
    same single-edge delta stream with no log, with a buffered log
    (``fsync="never"``), and with a per-record fsync.  The retry rows
    drain the same request set through the pool twice — undisturbed,
    then with one deterministic worker kill on its first block — and
    demand bitwise-identical answers either way.
    """
    import tempfile

    from repro.graphs.wal import GraphWAL
    from repro.testing import FaultPlan, FaultRule

    graph = load_dataset("arxiv", scale=scale)
    rng = np.random.default_rng(6)
    deltas = [
        GraphDelta(add_edges=[(u, v)])
        for u, v in random_absent_edges(graph, n_deltas, rng)
    ]
    wal_ms = {}
    with tempfile.TemporaryDirectory() as tmp:
        for policy in ("none", "never", "always"):
            wal = (
                None
                if policy == "none"
                else GraphWAL(os.path.join(tmp, f"{policy}.wal"), fsync=policy)
            )
            store = GraphStore(graph, wal=wal)
            start = time.perf_counter()
            for delta in deltas:
                store.apply(delta)
            wal_ms[policy] = (time.perf_counter() - start) / len(deltas) * 1e3
            if wal is not None:
                wal.close()

    model = LACA(LacaConfig(metric="cosine", diffusion="greedy")).fit(graph)
    seeds = [
        int(s)
        for s in np.random.default_rng(7).choice(
            graph.n, size=n_requests, replace=True
        )
    ]

    def drain(fault_plan):
        service = ClusterService(
            model, workers=workers, max_batch=32, max_wait_s=0.002,
            cache_size=0, fault_plan=fault_plan, backoff_base_s=0.05,
        )
        try:
            start = time.perf_counter()
            futures = [service.submit(seed, 20) for seed in seeds]
            wait(futures)
            elapsed = time.perf_counter() - start
            return (
                [future.result() for future in futures],
                elapsed,
                service.stats(),
            )
        finally:
            service.close(timeout=60)

    clean, clean_s, clean_stats = drain(None)
    chaos, chaos_s, chaos_stats = drain(
        FaultPlan(
            [
                FaultRule(
                    site="worker.block",
                    match={"worker_id": 0, "spawn": 0},
                    action="exit",
                )
            ]
        )
    )
    return {
        "graph": "arxiv",
        "scale": scale,
        "wal_deltas": len(deltas),
        "apply_ms_per_delta_no_wal": round(wal_ms["none"], 3),
        "apply_ms_per_delta_wal_buffered": round(wal_ms["never"], 3),
        "apply_ms_per_delta_wal_fsync": round(wal_ms["always"], 3),
        "wal_fsync_overhead_pct": round(
            (wal_ms["always"] - wal_ms["none"]) / wal_ms["none"] * 100.0, 1
        ),
        "requests_in_flight": n_requests,
        "workers": workers,
        "bitwise_identical_through_kill": all(
            np.array_equal(a, b) for a, b in zip(clean, chaos)
        ),
        "clean_seeds_per_s": round(n_requests / clean_s, 1),
        "one_kill_seeds_per_s": round(n_requests / chaos_s, 1),
        "clean_p95_latency_ms": round(clean_stats["p95_latency_s"] * 1e3, 3),
        "one_kill_p95_latency_ms": round(
            chaos_stats["p95_latency_s"] * 1e3, 3
        ),
        "worker_restarts": chaos_stats["worker_restarts"],
        "block_retries": chaos_stats["block_retries"],
    }


def bench_scenario_replay(
    n: int, epochs: int, queries_per_epoch: int, workers: int, verify_every: int
) -> dict:
    """Temporal scenario replay through both serving front-ends (PR 9).

    One seeded dynamic-SBM trace — community churn, births/deaths,
    attribute drift, one scheduled merge and one split — replayed as a
    mixed read/write stream (Zipf-seeded queries interleaved with the
    epoch deltas) through the single-process service and the worker
    pool.  ``verify_every=1`` refits a fresh model from scratch at every
    epoch and demands the incrementally refreshed answers be bitwise
    identical; tracking recall scores each answer against the planted
    evolving partition.
    """
    from repro.scenarios import (
        DynamicSBMConfig,
        ReplayConfig,
        generate_dynamic_sbm,
        replay,
    )

    scenario = generate_dynamic_sbm(
        DynamicSBMConfig(
            n=n,
            n_communities=8,
            avg_degree=8.0,
            mixing=0.08,
            d=32,
            epochs=epochs,
            churn_fraction=0.01,
            birth_fraction=0.005,
            death_fraction=0.003,
            drift_fraction=0.01,
            merge_epochs=(max(2, epochs // 3),),
            split_epochs=(max(3, (2 * epochs) // 3),),
        ),
        seed=9,
    )
    replay_config = ReplayConfig(
        queries_per_epoch=queries_per_epoch,
        seed=13,
        verify_every=verify_every,
        verify_sample=2,
        drain_before_update=True,
    )
    config = LacaConfig(metric="cosine", diffusion="greedy")

    out = {
        "scenario": {
            "n": n,
            "communities": 8,
            "epochs": epochs,
            "queries_per_epoch": queries_per_epoch,
            "total_queries": epochs * queries_per_epoch,
            "verify_every": verify_every,
        },
    }
    for name in ("service", "pool"):
        model = LACA(config).fit(scenario.base)
        store = GraphStore(scenario.base, history=epochs + 1)
        service = ClusterService(
            model, workers=workers if name == "pool" else 0, store=store,
            max_batch=32, max_wait_s=0.002, cache_size=4096,
        )
        try:
            result = replay(service, scenario, replay_config)
        finally:
            service.close(timeout=60)
        summary = result.summary()
        out[name] = {
            "workers": workers if name == "pool" else 1,
            "queries": summary["queries"],
            "query_p50_ms": summary["query_p50_ms"],
            "query_p95_ms": summary["query_p95_ms"],
            "mean_update_s": summary["mean_update_s"],
            "updates_per_s": summary["updates_per_s"],
            "mean_tracking_recall": summary["mean_tracking_recall"],
            "mean_tracked_stability": summary["mean_tracked_stability"],
            "cache_hit_rate": summary["cache_hit_rate"],
            "entries_promoted": summary["entries_promoted"],
            "entries_invalidated": summary["entries_invalidated"],
            "shed": summary["shed"],
            "deadline_misses": summary["deadline_misses"],
            "all_verified_bitwise": summary["all_verified_bitwise"],
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_pr9.json")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced sizes for CI (same shape, smaller graphs)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        big_scale, small_scale, n_seeds, repeats = 4.0, 0.5, 4, 1
        batch_seeds, serve_requests = 64, 64
        update_deltas, update_queries = 8, 32
        pool_scale, pool_requests, pool_workers = 4.0, 64, 2
        obs_requests, obs_repeats = 64, 2
        ft_deltas, ft_requests = 8, 64
        replay_n, replay_epochs, replay_queries, replay_verify = 400, 5, 24, 2
    else:
        big_scale, small_scale, n_seeds, repeats = 21.0, 1.0, 8, 3
        batch_seeds, serve_requests = 192, 256
        update_deltas, update_queries = 32, 128
        pool_scale, pool_requests = 21.0, 256
        pool_workers = min(4, max(2, os.cpu_count() or 1))
        obs_requests, obs_repeats = 256, 3
        ft_deltas, ft_requests = 32, 256
        replay_n, replay_epochs, replay_queries, replay_verify = 2000, 21, 256, 1

    started = time.time()
    report = {
        "pr": 9,
        "smoke": args.smoke,
        "host": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
        # The headline measurement: the Fig. 10 scalability graph at the
        # paper's ogbn-arxiv size (scale 21 ⇒ n = 168k), default ε.
        "single_seed_scalability": bench_single_seed(
            big_scale, ("adaptive", "greedy"), n_seeds, repeats
        ),
        "single_seed_registered_scale": bench_single_seed(
            small_scale, ("adaptive", "greedy"), max(8, n_seeds), repeats
        ),
        "batched": bench_batched(small_scale, batch_seeds),
        "serving": bench_serving(small_scale, serve_requests),
        "engine_work": bench_engine_work(small_scale),
        # The PR 5 acceptance evidence: incremental updates on the same
        # Fig. 10 graph the single-seed headline uses.
        "update_throughput": bench_updates(
            big_scale, update_deltas, update_queries
        ),
        # The PR 6 acceptance evidence: the worker pool over the shared-
        # memory graph vs. the single-process service, 256 in-flight.
        "pool_throughput": bench_pool(pool_scale, pool_requests, pool_workers),
        # The PR 7 acceptance evidence: full tracing costs < 3% seeds/s
        # on the same Fig. 10 serving drain.
        "observability_overhead": bench_observability(
            pool_scale, obs_requests, obs_repeats
        ),
        # The PR 8 acceptance evidence: WAL durability cost per delta
        # and the retry path under one deterministic worker kill.
        "fault_tolerance": bench_fault_tolerance(
            pool_scale, ft_deltas, ft_requests, pool_workers
        ),
        # The PR 9 acceptance evidence: a ≥20-epoch evolving-community
        # trace with ≥5k mixed queries through both front-ends, every
        # epoch's answers verified bitwise against a from-scratch refit.
        "scenario_replay": bench_scenario_replay(
            replay_n, replay_epochs, replay_queries, pool_workers,
            replay_verify,
        ),
    }
    report["wall_seconds"] = round(time.time() - started, 1)

    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=False)
        fh.write("\n")

    headline = report["single_seed_scalability"]["engines"]
    for engine, row in headline.items():
        print(
            f"{engine:10s} {row['reference_qps']:7.1f} -> {row['frontier_qps']:7.1f} "
            f"q/s  ({row['speedup']:.2f}x)"
        )
    updates = report["update_throughput"]
    print(
        f"updates    {updates['incremental_ms_per_delta']:.2f} ms/delta vs "
        f"refit {updates['full_refit_s']:.2f}s "
        f"({updates['speedup_vs_refit']:.0f}x), post-update p50 "
        f"{updates['post_update_query_p50_ms']:.2f} ms"
    )
    pool = report["pool_throughput"]
    print(
        f"pool       {pool['single_process_seeds_per_s']:.1f} -> "
        f"{pool['pool_seeds_per_s']:.1f} seeds/s "
        f"({pool['pool_speedup']:.2f}x, {pool['workers']} workers on "
        f"{pool['cpu_count']} cores, "
        f"bitwise_identical={pool['bitwise_identical']})"
    )
    obs = report["observability_overhead"]
    print(
        f"tracing    {obs['tracing_off_seeds_per_s']:.1f} -> "
        f"{obs['tracing_on_seeds_per_s']:.1f} seeds/s with every span "
        f"logged ({obs['overhead_pct']:+.2f}% overhead)"
    )
    ft = report["fault_tolerance"]
    print(
        f"wal        {ft['apply_ms_per_delta_no_wal']:.2f} -> "
        f"{ft['apply_ms_per_delta_wal_fsync']:.2f} ms/delta with "
        f"per-record fsync ({ft['wal_fsync_overhead_pct']:+.1f}%)"
    )
    print(
        f"one kill   {ft['clean_seeds_per_s']:.1f} -> "
        f"{ft['one_kill_seeds_per_s']:.1f} seeds/s, p95 "
        f"{ft['clean_p95_latency_ms']:.1f} -> "
        f"{ft['one_kill_p95_latency_ms']:.1f} ms "
        f"({ft['block_retries']} block retr(ies), "
        f"bitwise_identical={ft['bitwise_identical_through_kill']})"
    )
    scen = report["scenario_replay"]
    for side in ("service", "pool"):
        row = scen[side]
        print(
            f"replay/{side:7s} {row['queries']} queries over "
            f"{scen['scenario']['epochs']} epochs: p50 "
            f"{row['query_p50_ms']:.2f} ms, {row['updates_per_s']:.1f} "
            f"updates/s, recall {row['mean_tracking_recall']:.3f}, "
            f"verified={row['all_verified_bitwise']}"
        )
    print(f"report written to {args.out} ({report['wall_seconds']}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
