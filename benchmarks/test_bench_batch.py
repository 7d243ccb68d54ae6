"""Bench: batched vs sequential multi-seed throughput (the batching win).

Measures LACA seeds/sec on the Fig. 10 scalability graph (arxiv) as the
query batch width B grows.  ``batch_size=1`` is the sequential per-seed
online stage; larger widths answer the same seeds through the block
diffusion engine, sharing one sparse mat-mat per iteration.  The headline
assertion is the acceptance bar for the batching subsystem: at B=64 the
block path must clear 3× the sequential throughput.  One test has no
timing: it pins every width bitwise to the sequential answers.
"""

import time

import numpy as np
import pytest

from repro.core import pipeline
from repro.core.config import LacaConfig
from repro.core.pipeline import LACA
from repro.graphs.datasets import load_dataset

BATCH_SIZES = [1, 16, 64, 256]
N_SEEDS = 256
CLUSTER_SIZE = 20


@pytest.fixture(scope="module")
def setup(bench_scale):
    graph = load_dataset("arxiv", scale=bench_scale)
    # Both sides of the comparison run the same greedy engine (Algo 1 /
    # its block form), so the ratio isolates batching itself.
    model = LACA(LacaConfig(metric="cosine", diffusion="greedy")).fit(graph)
    seeds = np.random.default_rng(0).choice(graph.n, size=N_SEEDS, replace=False)
    seeds = [int(seed) for seed in seeds]
    model.cluster_many(seeds[:8], size=CLUSTER_SIZE)  # warm caches
    return model, seeds


@pytest.mark.parametrize("batch", BATCH_SIZES)
def test_bench_batch_throughput(benchmark, setup, batch):
    model, seeds = setup
    clusters = benchmark.pedantic(
        model.cluster_many,
        args=(seeds,),
        kwargs={"size": CLUSTER_SIZE, "batch_size": batch},
        rounds=1,
        iterations=1,
    )
    assert len(clusters) == N_SEEDS


def _seeds_per_second(model, seeds, batch_sizes, repeats=5):
    """Best-of-``repeats`` seeds/s for each width, timed in alternating
    rounds so that drift in host speed during the run hits every width
    alike instead of whichever block ran last."""
    best = dict.fromkeys(batch_sizes, float("inf"))
    for _ in range(repeats):
        for batch_size in batch_sizes:
            start = time.perf_counter()
            model.cluster_many(seeds, size=CLUSTER_SIZE, batch_size=batch_size)
            best[batch_size] = min(best[batch_size], time.perf_counter() - start)
    return {batch_size: len(seeds) / best[batch_size] for batch_size in batch_sizes}


def test_batch64_is_3x_sequential(setup):
    """Acceptance bar: B=64 clears 3× the B=1 throughput."""
    model, seeds = setup
    rates = _seeds_per_second(model, seeds[:64], (1, 64))
    sequential, batched = rates[1], rates[64]
    assert batched >= 3.0 * sequential, (
        f"batched {batched:.0f} seeds/s vs sequential {sequential:.0f} seeds/s "
        f"({batched / sequential:.2f}x < 3x)"
    )


def test_throughput_monotone_in_batch_width(setup):
    """Wider blocks should never serve fewer seeds/sec than B=1 (with
    slack for timer noise)."""
    model, seeds = setup
    rates = _seeds_per_second(model, seeds, (1, 16, 64))
    assert rates[16] > rates[1]
    assert rates[64] > rates[1]


def test_block_widths_match_sequential_bitwise(setup, monkeypatch):
    """Correctness, no timing: every width answers bitwise ``batch_size=1``,
    and the block engine really runs (``block_dense`` in the kernel tally
    of the routed blocks), so the comparison covers the block path."""
    model, seeds = setup
    route_block = pipeline.route_block
    tally = {}

    def tallying_route_block(*args):
        records, block_tally = route_block(*args)
        for kind, count in block_tally.items():
            tally[kind] = tally.get(kind, 0) + count
        return records, block_tally

    monkeypatch.setattr(pipeline, "route_block", tallying_route_block)
    sequential = model.cluster_many(seeds, size=CLUSTER_SIZE, batch_size=1)
    assert "block_dense" not in tally
    for batch_size in (16, 64, 256):
        tally.clear()
        clusters = model.cluster_many(seeds, size=CLUSTER_SIZE, batch_size=batch_size)
        assert tally.get("block_dense", 0) > 0, (batch_size, tally)
        assert clusters.keys() == sequential.keys()
        for seed in seeds:
            np.testing.assert_array_equal(clusters[seed], sequential[seed])
