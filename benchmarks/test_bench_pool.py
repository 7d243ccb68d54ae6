"""Bench: multi-process pool vs. single-process serving (the PR 6 bar).

One process serializes blocks — one GIL, one BLAS context — no matter
how well the micro-batcher coalesces.  ``ClusterService(workers=N)``
fans the same gathered blocks out to worker processes over one shared-memory
graph, so throughput should scale with cores while every answer stays
bitwise identical to ``LACA.cluster``.

Headline assertion — the acceptance bar: the pool beats the
single-process service by **≥ 3×** at 256 in-flight requests on the
Fig. 10 scalability graph (the arxiv analog at the paper's ogbn-arxiv
operating point).  The bar is gated on host parallelism: a 3× pool win
is physically impossible on < 4 cores, so the gate skips there (CI and
dev boxes vary) while the parity assertion below always runs, in the
blocking CI job too.  perfbench's ``churn`` workload times a 2-worker
pool with repeated runs (``perfbench/README.md``).

A second bar runs on 2 cores: in a closed loop of 8 outstanding queries
every gathered block holds most of the window, so only a pool that
spreads each block over its workers can use the second one.  Two
workers must beat one by >= 1.3x on the churn workload's SBM graph.
"""

import os
import threading
import time
from concurrent.futures import wait

import numpy as np
import pytest

from repro.core.config import LacaConfig
from repro.core.pipeline import LACA
from repro.graphs.datasets import load_dataset
from repro.scenarios.dynamic import DynamicSBMConfig, generate_dynamic_sbm
from repro.serving import ClusterService

SCALE = 21.0
N_INFLIGHT = 256
WORKERS = 4


@pytest.fixture(scope="module")
def setup():
    graph = load_dataset("arxiv", scale=SCALE)
    model = LACA(LacaConfig(metric="cosine", diffusion="greedy")).fit(graph)
    seeds = [
        int(s)
        for s in np.random.default_rng(7).choice(
            graph.n, N_INFLIGHT, replace=True
        )
    ]
    return graph, model, seeds


def _drain(service, seeds):
    """Submit everything up front (the in-flight load), then drain."""
    start = time.perf_counter()
    futures = [service.submit(seed, 20) for seed in seeds]
    wait(futures)
    elapsed = time.perf_counter() - start
    return [future.result() for future in futures], elapsed


def test_pool_answers_bitwise_identical_under_load(setup):
    """The non-negotiable half of the bar, asserted on every host: the
    pool's answers under concurrent load equal the single-process
    service's exactly — shared pages, same engines, same bits."""
    _, model, seeds = setup
    sample = seeds[:64]
    with ClusterService(
        model, max_batch=32, max_wait_s=0.002, cache_size=0
    ) as service:
        single, _ = _drain(service, sample)
    with ClusterService(
        model, workers=2, max_batch=32, max_wait_s=0.002, cache_size=0
    ) as pool:
        pooled, _ = _drain(pool, sample)
        occupancy = pool.stats()["worker_occupancy"]
    for seed, a, b in zip(sample, single, pooled):
        np.testing.assert_array_equal(a, b, err_msg=f"seed {seed} diverged")
    assert sum(w["seeds"] for w in occupancy.values()) == len(sample)


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="pool >= 3x bar needs >= 4 cores; parity still asserted above",
)
def test_pool_beats_single_process_3x(setup):
    """Acceptance bar: >= 3x single-process throughput at 256 in-flight."""
    _, model, seeds = setup
    with ClusterService(
        model, max_batch=32, max_wait_s=0.002, cache_size=0
    ) as service:
        _drain(service, seeds[:16])  # warm
        single, single_s = _drain(service, seeds)
    with ClusterService(
        model, workers=WORKERS, max_batch=32, max_wait_s=0.002, cache_size=0
    ) as pool:
        _drain(pool, seeds[:16])  # warm (workers touch their pages)
        pooled, pool_s = _drain(pool, seeds)
    for a, b in zip(single, pooled):
        np.testing.assert_array_equal(a, b)

    speedup = single_s / pool_s
    assert speedup >= 3.0, (
        f"pool ({WORKERS} workers) drained {N_INFLIGHT} in-flight in "
        f"{pool_s:.2f}s vs single-process {single_s:.2f}s — only "
        f"{speedup:.2f}x (< 3x)"
    )


# -- 2 workers over 1 in a closed loop (the block-split bar) ------------

WINDOW = 8
LOOP_QUERIES = 320
LOOP_ROUNDS = 3
#: perfbench's ``churn`` graph: n = 20k, 40 communities, degree 10,
#: mixing 0.1, d = 64, scenario seed 11 (the base graph does not depend
#: on the per-epoch settings).  Its scatters stay below the fan-out threshold,
#: so ``workers=0`` would answer every block on one thread.
CHURN_SBM = DynamicSBMConfig(
    n=20000, n_communities=40, avg_degree=10.0, mixing=0.1, d=64, epochs=1
)


@pytest.fixture(scope="module")
def churn_setup():
    graph = generate_dynamic_sbm(CHURN_SBM, seed=11).base
    model = LACA(
        LacaConfig(metric="cosine", diffusion="greedy", epsilon=1e-4)
    ).fit(graph)
    seeds = [
        int(s)
        for s in np.random.default_rng(3).choice(graph.n, LOOP_QUERIES, replace=False)
    ]
    return model, seeds


def _closed_loop(service, seeds):
    """Keep ``WINDOW`` queries outstanding; answers and queries per second."""
    slots = threading.Semaphore(WINDOW)
    futures = []
    start = time.perf_counter()
    for seed in seeds:
        slots.acquire()
        future = service.submit(seed, 20)
        future.add_done_callback(lambda _future: slots.release())
        futures.append(future)
    wait(futures)
    elapsed = time.perf_counter() - start
    return [future.result() for future in futures], len(seeds) / elapsed


def test_two_workers_beat_one_in_a_closed_loop(churn_setup):
    """Acceptance bar: >= 1.3x one worker's closed-loop throughput, best of
    alternating rounds, with every answer bitwise ``LACA.cluster``."""
    model, seeds = churn_setup
    services = {
        workers: ClusterService(model, workers=workers, cache_size=0)
        for workers in (1, 2)
    }
    best = {1: 0.0, 2: 0.0}
    answers = {}
    try:
        for service in services.values():
            _closed_loop(service, seeds[:2 * WINDOW])  # warm
        for round_ in range(LOOP_ROUNDS):
            for workers in (1, 2) if round_ % 2 == 0 else (2, 1):
                answers[workers], qps = _closed_loop(services[workers], seeds)
                best[workers] = max(best[workers], qps)
    finally:
        for service in services.values():
            service.close()
    for seed, one, two in zip(seeds, answers[1], answers[2]):
        np.testing.assert_array_equal(one, two, err_msg=f"seed {seed} diverged")
    for seed, two in zip(seeds[::8], answers[2][::8]):
        np.testing.assert_array_equal(two, model.cluster(seed, 20))
    speedup = best[2] / best[1]
    assert speedup >= 1.3, (
        f"2 workers served {best[2]:.0f} q/s vs 1 worker {best[1]:.0f} q/s "
        f"in a closed loop of {WINDOW} — only {speedup:.2f}x (< 1.3x)"
    )
