"""Bench: temporal community-tracking replay (the PR 9 scenario bar).

One seeded dynamic-SBM trace — membership churn, node births/deaths,
attribute drift, a scheduled merge and split — replayed as a mixed
read/write stream through the live ``ClusterService``: Zipf-seeded
queries interleave with the epoch deltas, every answer is scored
against the planted evolving partition, and the periodic verify pass
refits a fresh model from scratch and demands bitwise-equal clusters.

The asserts pin the *shape* the scenario suite guarantees: queries all
drain, incremental updates are cheap, tracking recall stays high on a
well-separated evolving SBM, and the verify pass never catches the
incrementally refreshed service diverging from a cold refit.
``scripts/replay_smoke.py`` runs a smaller trace through a 2-worker
pool in the blocking CI job; ``python -m repro replay`` runs a trace of
any length.
"""

import pytest

from repro.core.config import LacaConfig
from repro.core.pipeline import LACA
from repro.graphs import GraphStore
from repro.scenarios import (
    DynamicSBMConfig,
    ReplayConfig,
    generate_dynamic_sbm,
    replay,
)
from repro.serving import ClusterService

from conftest import run_once

EPOCHS = 6
QUERIES_PER_EPOCH = 48


@pytest.fixture(scope="module")
def scenario():
    return generate_dynamic_sbm(
        DynamicSBMConfig(
            n=500,
            n_communities=6,
            avg_degree=8.0,
            mixing=0.08,
            d=32,
            epochs=EPOCHS,
            churn_fraction=0.01,
            birth_fraction=0.005,
            death_fraction=0.003,
            drift_fraction=0.01,
            merge_epochs=(3,),
            split_epochs=(5,),
        ),
        seed=9,
    )


def test_bench_scenario_replay(benchmark, scenario):
    def run():
        model = LACA(LacaConfig(metric="cosine", diffusion="greedy")).fit(
            scenario.base
        )
        store = GraphStore(scenario.base, history=EPOCHS + 1)
        with ClusterService(
            model, store=store, max_batch=32, max_wait_s=0.002,
            cache_size=4096,
        ) as service:
            return replay(
                service,
                scenario,
                ReplayConfig(
                    queries_per_epoch=QUERIES_PER_EPOCH,
                    seed=13,
                    verify_every=3,
                    verify_sample=2,
                ),
            ).summary()

    summary = run_once(benchmark, run)
    assert summary["epochs"] == EPOCHS
    assert summary["queries"] == EPOCHS * QUERIES_PER_EPOCH
    assert summary["shed"] == 0 and summary["deadline_misses"] == 0
    assert summary["updates_per_s"] > 0
    assert summary["mean_tracking_recall"] > 0.5
    assert summary["all_verified_bitwise"] is True
