"""Dynamic graph demo: serve queries while the graph evolves underneath.

Walks the full update lifecycle:

1. fit — build a model on the arxiv analog and stand up a
   :class:`ClusterService` over a :class:`GraphStore`;
2. traffic — warm the result cache with a spread of seed queries;
3. evolve — apply live deltas through the service: new edges, a new
   node (with attributes and a community label), and an attribute
   rewrite — each advancing the graph epoch without a refit;
4. verify — post-update answers are bitwise those of a from-scratch
   fit on the head snapshot, and each epoch advance dropped the older
   epoch's cached answers;
5. compare — time incremental apply+refresh against the full refit the
   store replaces.

Run:  python examples/dynamic_update_demo.py
"""

import time

import numpy as np

from repro import LACA, GraphDelta, GraphStore, load_dataset
from repro.serving import ClusterService

CLUSTER_SIZE = 50


def main() -> None:
    graph = load_dataset("arxiv", scale=2.0)
    rng = np.random.default_rng(0)

    model = LACA(metric="cosine").fit(graph)
    print(f"fitted on {graph.name}: n={graph.n}, m={graph.m}, "
          f"epoch={graph.epoch} ({model.preprocessing_seconds:.2f}s)")

    store = GraphStore(graph)
    with ClusterService(model, store=store, cache_size=4096) as service:
        # -- warm traffic ---------------------------------------------
        seeds = [int(s) for s in rng.choice(graph.n, 48, replace=False)]
        for seed in seeds:
            service.cluster(seed, CLUSTER_SIZE)
        for seed in seeds:                      # cache hits
            service.cluster(seed, CLUSTER_SIZE)
        print(f"warmed cache: {service.stats()['cache_served']} of "
              f"{2 * len(seeds)} requests served from cache")

        # -- live updates ---------------------------------------------
        u, v = seeds[0], seeds[1]
        out = service.apply_update(GraphDelta(add_edges=[(u, v)]))
        print(f"edge ({u}, {v}) inserted -> epoch {out['epoch']} in "
              f"{out['update_s'] * 1e3:.2f}ms; cache invalidated "
              f"{out['entries_invalidated']}")

        # New attribute content: rows copied from another member of the
        # node's community.  The TNAM refresh recomputes only the Gram
        # blocks holding the touched rows, then reruns the eigensolve.
        communities = np.asarray(graph.communities)

        def peer_row(node):
            peers = np.flatnonzero(communities == communities[node])
            return graph.attributes[[int(rng.choice(peers))]]

        newcomer = store.head.n
        out = service.apply_update(GraphDelta(
            add_nodes=1,
            add_edges=[(newcomer, u), (newcomer, v)],
            add_attributes=peer_row(u),
            add_communities=[int(communities[u])],
        ))
        print(f"node {newcomer} appended -> epoch {out['epoch']} in "
              f"{out['update_s'] * 1e3:.2f}ms")

        out = service.apply_update(GraphDelta(
            set_attributes=([u], peer_row(u))
        ))
        print(f"attributes of {u} rewritten -> epoch {out['epoch']} in "
              f"{out['update_s'] * 1e3:.2f}ms (dirty Gram blocks only)")

        # -- verify ---------------------------------------------------
        # Every refresh is bitwise a fresh fit on the head snapshot.
        fresh = LACA(model.config).fit(store.head)
        for seed in (u, v, newcomer):
            np.testing.assert_array_equal(
                service.cluster(seed, CLUSTER_SIZE),
                fresh.cluster(seed, CLUSTER_SIZE),
            )
        print("post-update answers are bitwise those of a from-scratch fit")
        stats = service.stats()
        print(f"service: epoch={stats['epoch']}, updates={stats['updates']}, "
              f"p50 update {stats['p50_update_s'] * 1e3:.2f}ms, cache "
              f"invalidated = {stats['entries_invalidated']}")

    # -- incremental vs refit ----------------------------------------
    start = time.perf_counter()
    store.apply(GraphDelta(add_edges=[(seeds[2], seeds[3])]))
    model.refresh(store)
    incremental_s = time.perf_counter() - start
    start = time.perf_counter()
    LACA(model.config).fit(store.head)
    refit_s = time.perf_counter() - start
    print(f"single-edge delta: incremental {incremental_s * 1e3:.2f}ms vs "
          f"refit {refit_s * 1e3:.0f}ms ({refit_s / incremental_s:.0f}x)")


if __name__ == "__main__":
    main()
