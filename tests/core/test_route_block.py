"""Tests for route_block's shared claim cursor, its saturated chunks and
its merged tally."""

import sys
import threading

import numpy as np
import pytest

from repro.core import routing
from repro.core.config import LacaConfig
from repro.core.laca import LacaResult
from repro.core.pipeline import LACA
from repro.diffusion.base import (
    begin_kernel_tally,
    block_diffusion_pays,
    end_kernel_tally,
)
from repro.graphs.datasets import load_dataset
from repro.parallel import contiguous_cuts

SIZE = 20


@pytest.fixture(scope="module")
def model():
    """arxiv analog (n=800) at ε=1e-3: no scatter goes graph-wide, so no
    prefix of any claim order can switch the block to the batch path."""
    config = LacaConfig(metric="cosine", diffusion="greedy", k=8, epsilon=1e-3)
    return LACA(config).fit(load_dataset("arxiv", scale=0.1))


def test_more_threads_than_cores_lose_no_update(model, monkeypatch):
    """Six threads, a 1 µs switch interval: every seed is claimed exactly
    once (a double claim would double its kernels in the tally) and every
    record equals the one-thread answer."""
    monkeypatch.setattr(routing, "FANOUT_MIN_SCATTER_VOLUME", 0)
    rng = np.random.default_rng(0)
    seeds = [int(s) for s in rng.choice(model.graph.n, size=48, replace=False)]
    sizes = [SIZE] * len(seeds)

    def route(threads):
        return routing.route_block(model, threads, seeds, sizes, LacaResult.cluster)

    expected, expected_tally = route(1)
    assert "full" not in expected_tally, expected_tally
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            records, tally = route(6)
            assert tally == expected_tally
            for record, cluster in zip(records, expected, strict=True):
                np.testing.assert_array_equal(record, cluster)
    finally:
        sys.setswitchinterval(interval)


@pytest.fixture(scope="module")
def saturated_model():
    """arxiv analog (n=800) at the default ε: every query reaches all n."""
    config = LacaConfig(metric="cosine", diffusion="greedy", k=8)
    return LACA(config).fit(load_dataset("arxiv", scale=0.1))


def _tally(call):
    """Run ``call()`` under a fresh kernel tally on this thread; return both."""
    begin_kernel_tally()
    try:
        result = call()
    finally:
        tally = end_kernel_tally()
    return result, tally


def test_saturating_block_splits_over_every_thread(saturated_model, monkeypatch):
    """A block that flips after its first seed cuts its rest into one
    contiguous chunk per routing thread (sizes 5 and 4); each chunk is one
    ``scores_batch`` on its own thread, every record is bitwise
    ``LACA.cluster``, and the helper's block kernels reach the tally."""
    model = saturated_model
    monkeypatch.setattr(routing, "FANOUT_MIN_SCATTER_VOLUME", 0)
    rng = np.random.default_rng(2)
    seeds = [int(s) for s in rng.choice(model.graph.n, size=10, replace=False)]
    sizes = [SIZE] * len(seeds)
    _, first = _tally(lambda: model.scores(seeds[0]))
    assert block_diffusion_pays(first), first
    expected_tally = dict(first)
    for chunk in (seeds[1:6], seeds[6:10]):
        for kind, count in _tally(lambda: model.scores_batch(chunk))[1].items():
            expected_tally[kind] = expected_tally.get(kind, 0) + count

    calls = []
    scores_batch = LACA.scores_batch

    def recording_scores_batch(self, chunk):
        calls.append((threading.current_thread().name, [int(s) for s in chunk]))
        return scores_batch(self, chunk)

    monkeypatch.setattr(LACA, "scores_batch", recording_scores_batch)
    records, tally = routing.route_block(model, 2, seeds, sizes, LacaResult.cluster)

    assert sorted(chunk for _, chunk in calls) == sorted([seeds[1:6], seeds[6:10]])
    assert len({name for name, _ in calls}) == 2, calls
    for seed, record in zip(seeds, records, strict=True):
        expected = model.cluster(seed, SIZE)
        assert record.dtype == expected.dtype
        np.testing.assert_array_equal(record, expected)
    assert tally == expected_tally


def test_block_that_saturates_part_way_splits_its_rest(model, monkeypatch):
    """A fanned-out local block whose tally turns saturated after a few
    seeds cuts what is left into one contiguous chunk per thread, each on
    its own thread, and every record stays bitwise ``LACA.cluster``.  The
    seed at which it flips depends on thread timing; the split does not."""
    rng = np.random.default_rng(4)
    seeds = [int(s) for s in rng.choice(model.graph.n, size=20, replace=False)]
    sizes = [SIZE] * len(seeds)
    flip_at = 0  # kernels of the first four seeds: the rest flips after them
    for seed in seeds[:4]:
        _, tally = _tally(lambda: model.scores(seed))
        flip_at += sum(tally.values())
    monkeypatch.setattr(routing, "FANOUT_MIN_SCATTER_VOLUME", 0)
    monkeypatch.setattr(
        routing, "block_diffusion_pays", lambda tally: sum(tally.values()) >= flip_at
    )
    calls = []
    scores_batch = LACA.scores_batch

    def recording_scores_batch(self, chunk):
        calls.append((threading.current_thread().name, [int(s) for s in chunk]))
        return scores_batch(self, chunk)

    monkeypatch.setattr(LACA, "scores_batch", recording_scores_batch)
    records, _ = routing.route_block(model, 2, seeds, sizes, LacaResult.cluster)

    chunks = sorted((seeds.index(chunk[0]), chunk) for _, chunk in calls)
    start = chunks[0][0]
    assert start >= 4, chunks
    assert [s for _, chunk in chunks for s in chunk] == seeds[start:]
    assert len(chunks) == 2 and abs(len(chunks[0][1]) - len(chunks[1][1])) <= 1
    assert len({name for name, _ in calls}) == 2, calls
    for seed, record in zip(seeds, records, strict=True):
        np.testing.assert_array_equal(record, model.cluster(seed, SIZE))


#: The 47 seeds after the first, in six chunks: five of 8, one of 7.
CUTS_47_BY_6 = [1, 9, 17, 25, 33, 41, 48]


def test_saturated_chunks_are_claimed_once_under_contention(
    saturated_model, monkeypatch
):
    """Six threads, a 1 µs switch interval: the saturated rest of a
    48-seed block is cut into six chunks of 8 and 7 seeds, each answered by
    exactly one ``scores_batch``, and every record equals the one-thread
    answer."""
    model = saturated_model
    monkeypatch.setattr(routing, "FANOUT_MIN_SCATTER_VOLUME", 0)
    rng = np.random.default_rng(3)
    seeds = [int(s) for s in rng.choice(model.graph.n, size=48, replace=False)]
    sizes = [SIZE] * len(seeds)
    expected, _ = routing.route_block(model, 1, seeds, sizes, LacaResult.cluster)
    calls = []
    scores_batch = LACA.scores_batch

    def recording_scores_batch(self, chunk):
        calls.append([int(s) for s in chunk])
        return scores_batch(self, chunk)

    monkeypatch.setattr(LACA, "scores_batch", recording_scores_batch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            calls.clear()
            records, _ = routing.route_block(
                model, 6, seeds, sizes, LacaResult.cluster
            )
            assert sorted(calls) == sorted(
                seeds[lo:hi] for lo, hi in zip(CUTS_47_BY_6, CUTS_47_BY_6[1:])
            )
            for record, cluster in zip(records, expected, strict=True):
                np.testing.assert_array_equal(record, cluster)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize(
    ("start", "stop", "count", "cuts"),
    [
        (1, 10, 2, [1, 6, 10]),
        (0, 10, 3, [0, 4, 7, 10]),
        (3, 7, 4, [3, 4, 5, 6, 7]),
        (0, 7, 1, [0, 7]),
    ],
)
def test_contiguous_cuts_differ_by_at_most_one(start, stop, count, cuts):
    assert contiguous_cuts(start, stop, count) == cuts
