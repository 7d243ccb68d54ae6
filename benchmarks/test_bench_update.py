"""Bench: incremental graph updates vs. full refit (the PR 5 bar).

A single inserted edge used to force the full offline pipeline: rebuild
the CSR from the complete edge list, re-normalize every attribute row,
and re-run Algo 3.  The versioned store replaces that with an O(nnz)
CSR splice plus an O(1) model refresh (edge deltas leave the TNAM
untouched; attribute deltas update only the touched rows).

Headline assertion — the acceptance bar: incremental ``store.apply`` +
``LACA.refresh`` beats the full refit by **≥ 5×** for single-edge deltas
on the Fig. 10 scalability graph (the arxiv analog at the paper's
ogbn-arxiv operating point, same graph as ``test_bench_frontier``).
The parity test below also runs in the blocking CI job; perfbench
reports the served update cost as ``update_p50_ms`` on every workload.
"""

import time

import numpy as np
import pytest

from repro.core.config import LacaConfig
from repro.core.pipeline import LACA
from repro.graphs import (
    AttributedGraph,
    GraphDelta,
    GraphStore,
    random_absent_edges,
)
from repro.graphs.datasets import load_dataset

SCALE = 21.0
N_DELTAS = 24


def _full_refit_seconds(graph, config):
    """The old cold path: rebuild the graph object, refit the model."""
    edges = graph.edge_list()
    start = time.perf_counter()
    rebuilt = AttributedGraph.from_edges(
        graph.n, edges, attributes=graph.attributes,
        communities=graph.communities, name=graph.name,
    )
    LACA(config).fit(rebuilt)
    return time.perf_counter() - start


@pytest.fixture(scope="module")
def setup():
    graph = load_dataset("arxiv", scale=SCALE)
    config = LacaConfig(metric="cosine")
    model = LACA(config).fit(graph)
    refit_s = _full_refit_seconds(graph, config)
    return graph, config, model, refit_s


def test_incremental_edge_update_beats_refit_5x(setup):
    """Acceptance bar: ≥ 5× vs full refit for single-edge deltas."""
    graph, config, model, refit_s = setup
    store = GraphStore(graph)
    model.refresh(store)  # attach at the same epoch (no-op)
    pairs = random_absent_edges(graph, N_DELTAS, np.random.default_rng(0))
    start = time.perf_counter()
    for u, v in pairs:
        store.apply(GraphDelta(add_edges=[(u, v)]))
        model.refresh(store)
    incremental_s = (time.perf_counter() - start) / len(pairs)

    speedup = refit_s / incremental_s
    assert speedup >= 5.0, (
        f"incremental apply+refresh {incremental_s * 1e3:.2f} ms/delta vs "
        f"refit {refit_s:.2f} s — only {speedup:.1f}x (< 5x)"
    )
    # and the refreshed model really is on the new head
    assert model.graph.epoch == len(pairs)
    assert model.graph.m == graph.m + len(pairs)


def test_post_update_queries_match_fresh_fit(setup):
    """Spot-check at scale: after edge deltas the maintained model
    answers bitwise like a fresh fit on the updated snapshot (edge
    deltas leave the TNAM untouched and Algo 3 is deterministic, so
    parity is exact; the full pin lives in the unit suite)."""
    graph, config, model, _ = setup
    store = GraphStore(model.graph)
    pairs = random_absent_edges(model.graph, 2, np.random.default_rng(2))
    for u, v in pairs:
        store.apply(GraphDelta(add_edges=[(u, v)]))
    model.refresh(store)
    fresh = LACA(config).fit(store.head)
    seed = pairs[0][0]
    np.testing.assert_array_equal(
        model.cluster(seed, 50), fresh.cluster(seed, 50)
    )


def test_incremental_attribute_update_beats_refit_5x(setup):
    """Attribute-row deltas keep the ≥ 5× margin: the TNAM folds in the
    touched rows (projection onto the retained basis + renormalization)
    instead of re-running the k-SVD.  Rows are drawn inside the basis
    span — the regime the incremental path is built for; out-of-span
    rows are *correct* too but pay the rebuild (pinned in the unit
    suite), which is exactly the refit being measured against."""
    graph, config, model, refit_s = setup
    store = GraphStore(model.graph)
    model.refresh(store)
    basis = model.tnam.basis
    rng = np.random.default_rng(1)
    nodes = rng.choice(graph.n, size=8, replace=False)
    start = time.perf_counter()
    for node in nodes:
        new_row = (rng.normal(size=basis.shape[0]) @ basis)[None, :]
        store.apply(GraphDelta(set_attributes=([int(node)], new_row)))
        model.refresh(store)
    incremental_s = (time.perf_counter() - start) / len(nodes)

    speedup = refit_s / incremental_s
    assert speedup >= 5.0, (
        f"attribute delta {incremental_s * 1e3:.2f} ms vs refit "
        f"{refit_s:.2f} s — only {speedup:.1f}x (< 5x)"
    )
