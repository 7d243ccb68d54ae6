"""Serving demo: persist a fitted model, then coalesce concurrent queries.

Walks the full serving lifecycle:

1. offline — fit LACA once and save the artifact (TNAM + config) to a
   single ``.npz`` archive next to the graph;
2. online — reload both in a "fresh process" and stand up a
   :class:`ClusterService`;
3. traffic — eight submitter threads fire seed queries concurrently;
   the dispatcher coalesces them into block diffusions and the LRU
   result cache absorbs repeats;
4. telemetry — compare the service's seeds/sec against a sequential
   baseline and print the stats dict.

Run:  python examples/serving_demo.py
"""

import tempfile
import threading
import time
from pathlib import Path

import numpy as np

from repro import LACA, load_dataset
from repro.graphs.io import load_graph, save_graph
from repro.serving import ClusterService, load_model, save_model

N_THREADS = 8
QUERIES_PER_THREAD = 32
CLUSTER_SIZE = 60


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="laca-serving-"))

    # -- offline: fit once, persist graph + model ----------------------
    graph = load_dataset("cora")
    model = LACA(metric="cosine", alpha=0.9).fit(graph)
    graph_path = save_graph(graph, workdir / "cora_graph")
    model_path = save_model(model, workdir / "cora_model")
    print(f"fitted in {model.preprocessing_seconds:.3f}s, saved to {model_path}")

    # -- online: a fresh process would start here ----------------------
    served_model = load_model(model_path, load_graph(graph_path))
    assert np.array_equal(
        served_model.cluster(0, CLUSTER_SIZE), model.cluster(0, CLUSTER_SIZE)
    ), "persistence must be bitwise-faithful"
    print("reloaded model answers bitwise-identically")

    # -- traffic: concurrent submitters share block diffusions ---------
    rng = np.random.default_rng(7)
    seeds = rng.choice(graph.n, size=N_THREADS * QUERIES_PER_THREAD, replace=False)
    shards = [
        [int(seed) for seed in seeds[offset::N_THREADS]]
        for offset in range(N_THREADS)
    ]

    def submitter(service: ClusterService, shard: list[int]) -> None:
        for seed in shard:
            service.cluster(seed, CLUSTER_SIZE)
        for seed in shard[:5]:  # repeats — answered from the result cache
            service.cluster(seed, CLUSTER_SIZE)

    with ClusterService(served_model, max_batch=N_THREADS, max_wait_s=0.002) as service:
        start = time.perf_counter()
        threads = [
            threading.Thread(target=submitter, args=(service, shard))
            for shard in shards
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        served_elapsed = time.perf_counter() - start
        stats = service.stats()

    # -- telemetry: against the sequential baseline --------------------
    start = time.perf_counter()
    for seed in seeds:
        served_model.cluster(int(seed), CLUSTER_SIZE)
    sequential_elapsed = time.perf_counter() - start

    total = stats["requests"]
    print(f"\nserved {total} requests in {served_elapsed:.3f}s "
          f"({total / served_elapsed:.0f} req/s) vs sequential "
          f"{len(seeds) / sequential_elapsed:.0f} seeds/s")
    print(f"mean batch occupancy: {stats['mean_batch_occupancy']:.2f} "
          f"across {stats['batches']} blocks")
    print(f"cache hit rate: {stats['cache_hit_rate']:.2%}")
    print(f"latency p50={stats['p50_latency_s'] * 1000:.2f}ms "
          f"p95={stats['p95_latency_s'] * 1000:.2f}ms")


if __name__ == "__main__":
    main()
