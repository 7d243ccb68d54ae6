#!/usr/bin/env python
"""Replay smoke: a small dynamic-SBM trace through the worker pool.

Generates a seeded evolving-community scenario (membership churn,
births, one merge), replays its delta stream and a Zipf-seeded mixed
query trace through ``ClusterService`` with 2 workers, and demands
a perfect run:

* every query drains — zero shed, zero deadline misses, zero lost
  futures;
* tracking recall against the planted evolving partition is nonzero
  (the service actually follows the communities it is asked about);
* the periodic verify pass — a from-scratch refit at the epoch head —
  matches the incrementally refreshed answers bitwise;
* the pool closes cleanly with all workers alive.

Exits non-zero with a reason on any violation.  Used by CI; also handy
manually::

    PYTHONPATH=src python scripts/replay_smoke.py
"""

from __future__ import annotations

import sys

from repro.core.config import LacaConfig
from repro.core.pipeline import LACA
from repro.graphs import GraphStore
from repro.scenarios import DynamicSBMConfig, ReplayConfig, generate_dynamic_sbm, replay
from repro.serving import ClusterService

EPOCHS = 4
QUERIES_PER_EPOCH = 24
WORKERS = 2


def fail(reason: str) -> None:
    print(f"REPLAY SMOKE FAIL: {reason}", file=sys.stderr)
    sys.exit(1)


def main() -> int:
    scenario = generate_dynamic_sbm(
        DynamicSBMConfig(
            n=300,
            n_communities=4,
            avg_degree=6.0,
            d=16,
            epochs=EPOCHS,
            churn_fraction=0.02,
            birth_fraction=0.01,
            merge_epochs=(3,),
        ),
        seed=7,
    )
    model = LACA(LacaConfig(k=8)).fit(scenario.base)
    store = GraphStore(scenario.base, history=EPOCHS + 1)
    service = ClusterService(
        model, workers=WORKERS, store=store, max_batch=8,
        max_wait_s=0.002, cache_size=1024,
    )
    try:
        result = replay(
            service,
            scenario,
            ReplayConfig(
                queries_per_epoch=QUERIES_PER_EPOCH,
                seed=3,
                verify_every=2,
                verify_sample=2,
                drain_before_update=True,
            ),
        )
        stats = service.stats()
    finally:
        service.close(timeout=60)

    summary = result.summary()
    if summary["queries"] != EPOCHS * QUERIES_PER_EPOCH:
        fail(
            f"expected {EPOCHS * QUERIES_PER_EPOCH} drained queries, "
            f"got {summary['queries']}"
        )
    if summary["shed"] or summary["deadline_misses"]:
        fail(
            f"lossy drain: shed={summary['shed']} "
            f"deadline_misses={summary['deadline_misses']}"
        )
    if not summary["mean_tracking_recall"] or summary["mean_tracking_recall"] <= 0:
        fail(f"tracking recall is {summary['mean_tracking_recall']!r}, want > 0")
    if summary["all_verified_bitwise"] is not True:
        fail("verify-vs-refit pass did not confirm bitwise equality")
    if stats["workers_alive"] != WORKERS:
        fail(f"expected {WORKERS} live workers, got {stats['workers_alive']}")

    print(
        f"REPLAY SMOKE OK: {summary['queries']} queries over "
        f"{summary['epochs']} epochs, recall "
        f"{summary['mean_tracking_recall']:.3f}, p50 "
        f"{summary['query_p50_ms']:.2f} ms, verified bitwise"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
