"""Bench: incremental graph updates vs. full refit (the PR 5 bar).

A single inserted edge used to force the full offline pipeline: rebuild
the CSR from the complete edge list, re-normalize every attribute row,
and re-run Algo 3.  The versioned store replaces that with an O(nnz)
CSR splice plus an O(1) model refresh (edge deltas leave the TNAM
untouched; attribute deltas recompute only the Gram blocks of the
touched rows).

Headline assertion — the acceptance bar: incremental ``store.apply`` +
``LACA.refresh`` beats the full refit by **≥ 5×** for single-edge deltas
on the Fig. 10 scalability graph (the arxiv analog at the paper's
ogbn-arxiv operating point, same graph as ``test_bench_frontier``).
The two parity tests below also run in the blocking CI job; perfbench
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
#: Alternating refit / incremental rounds of the attribute bar.
ROUNDS = 3


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
    _, config, model, refit_s = setup
    # Start from the model's head: the parity tests in this module may
    # have advanced the shared model already.
    base = model.graph
    store = GraphStore(base)
    model.refresh(store)  # attach at the same epoch (no-op)
    pairs = random_absent_edges(base, N_DELTAS, np.random.default_rng(0))
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
    assert model.graph.epoch == base.epoch + len(pairs)
    assert model.graph.m == base.m + len(pairs)


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


def test_post_attribute_update_queries_match_fresh_fit(setup):
    """Spot-check at scale: after attribute rows redrawn from a
    community peer (as perfbench's deltas do; such rows leave the
    rank-k basis span) and one appended node, the refreshed model
    answers bitwise like a fresh fit on the head snapshot — the TNAM
    refresh recomputes only the dirty Gram blocks and is still bitwise
    Algo 3 on the new attributes."""
    graph, config, model, _ = setup
    store = GraphStore(model.graph)
    model.refresh(store)
    rng = np.random.default_rng(3)
    communities = np.asarray(graph.communities)
    nodes = rng.choice(graph.n, size=8, replace=False)
    donors = [
        int(rng.choice(np.flatnonzero(communities == communities[node])))
        for node in nodes
    ]
    attributes = store.head.attributes
    store.apply(GraphDelta(set_attributes=(nodes, attributes[donors])))
    newcomer = store.head.n
    store.apply(GraphDelta(
        add_nodes=1,
        add_edges=[(newcomer, int(nodes[0]))],
        add_attributes=attributes[donors[:1]],
        add_communities=[int(communities[nodes[0]])],
    ))
    model.refresh(store)
    fresh = LACA(config).fit(store.head)
    for seed in (int(nodes[0]), int(nodes[1]), newcomer):
        np.testing.assert_array_equal(
            model.cluster(seed, 50), fresh.cluster(seed, 50)
        )


def test_incremental_attribute_update_beats_refit_5x(setup):
    """Attribute-row deltas keep the ≥ 5× margin: the TNAM recomputes
    the Gram blocks holding the touched rows and reruns the d × d
    eigensolve and the projection, instead of re-forming the whole
    ``XᵀX``.  Rows are drawn inside the basis span, as they have been
    since this bar was set; any row takes the same path.  Refits and
    rounds of 8 deltas alternate and the best of each is compared, so
    drift in host speed hits both sides alike."""
    graph, config, model, _ = setup
    store = GraphStore(model.graph)
    model.refresh(store)
    basis = model.tnam.basis
    rng = np.random.default_rng(1)
    refit_s = incremental_s = float("inf")
    for _ in range(ROUNDS):
        refit_s = min(refit_s, _full_refit_seconds(graph, config))
        nodes = rng.choice(graph.n, size=8, replace=False)
        start = time.perf_counter()
        for node in nodes:
            new_row = (rng.normal(size=basis.shape[0]) @ basis)[None, :]
            store.apply(GraphDelta(set_attributes=([int(node)], new_row)))
            model.refresh(store)
        incremental_s = min(
            incremental_s, (time.perf_counter() - start) / len(nodes)
        )

    speedup = refit_s / incremental_s
    assert speedup >= 5.0, (
        f"attribute delta {incremental_s * 1e3:.2f} ms vs refit "
        f"{refit_s:.2f} s — only {speedup:.1f}x (< 5x)"
    )
