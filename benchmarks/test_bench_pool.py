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
dev boxes vary) while the parity assertion below always runs.
``scripts/bench_report.py`` records the same measurements — honest
numbers for whatever host ran it — into ``BENCH_pr6.json``.
"""

import os
import time
from concurrent.futures import wait

import numpy as np
import pytest

from repro.core.config import LacaConfig
from repro.core.pipeline import LACA
from repro.graphs.datasets import load_dataset
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
