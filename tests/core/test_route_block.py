"""Stress test for route_block's shared claim cursor and merged tally."""

import sys

import numpy as np
import pytest

from repro.core import routing
from repro.core.config import LacaConfig
from repro.core.laca import LacaResult
from repro.core.pipeline import LACA
from repro.graphs.datasets import load_dataset

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

    def route(workspaces):
        return routing.route_block(model, workspaces, seeds, sizes, LacaResult.cluster)

    expected, expected_tally = route([model.make_workspace()])
    assert "full" not in expected_tally, expected_tally
    workspaces = [model.make_workspace() for _ in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            records, tally = route(workspaces)
            assert tally == expected_tally
            for record, cluster in zip(records, expected, strict=True):
                np.testing.assert_array_equal(record, cluster)
    finally:
        sys.setswitchinterval(interval)
