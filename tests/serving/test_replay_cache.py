"""Epoch-aware cache behavior under a long evolving-scenario replay.

These tests drive the cache through a *stream* of scenario epochs and
assert the two properties that make per-epoch caching trustworthy:

* each epoch advance invalidates exactly the entries that were live
  before it, so no answer outlives the epoch it was computed on, and
* every answer served after the advance equals a fresh ``LACA.cluster``
  on the from-scratch snapshot at the new epoch.
"""

import numpy as np
import pytest

from repro.core.config import LacaConfig
from repro.core.pipeline import LACA
from repro.graphs import GraphStore
from repro.scenarios import DynamicSBMConfig, generate_dynamic_sbm
from repro.serving import ClusterService

_SIZE = 12


@pytest.fixture(scope="module")
def scenario():
    # Structure-dominated evolution: sparse, localized churn, plus some
    # attribute rows re-drawn every epoch (churn and births do).
    config = DynamicSBMConfig(
        n=420,
        n_communities=6,
        avg_degree=6.0,
        mixing=0.05,
        d=24,
        epochs=10,
        churn_fraction=0.008,
        birth_fraction=0.005,
        death_fraction=0.0,
        drift_fraction=0.0,
    )
    return generate_dynamic_sbm(config, seed=31)


def _probe_seeds(scenario, per_community=2):
    labels = scenario.labels_at(0)
    seeds = []
    for community in np.unique(labels[labels >= 0]):
        members = np.flatnonzero(labels == community)
        seeds.extend(int(v) for v in members[:per_community])
    return seeds


class TestEpochCacheUnderReplay:
    @pytest.mark.parametrize("use_snas", [True, False], ids=["tnam", "no_snas"])
    def test_invalidations_match_live_entries_and_answers_exact(
        self, scenario, use_snas
    ):
        # A large epsilon keeps diffusion supports local, the regime where
        # a delta misses most queries; their answers are dropped anyway.
        config = LacaConfig(epsilon=0.05, use_snas=use_snas)
        model = LACA(config).fit(scenario.base)
        store = GraphStore(scenario.base, history=scenario.epochs + 1)
        probes = _probe_seeds(scenario)

        with ClusterService(model, store=store, cache_size=4096) as service:
            cache = service.cache
            for record in scenario.records:
                for seed in probes:
                    service.cluster(seed, _SIZE)
                live = len(cache)
                invalidations = cache.invalidations

                stats = service.apply_update(record.delta)
                assert live > 0
                assert stats["entries_invalidated"] == live
                assert cache.invalidations - invalidations == live
                assert len(cache) == 0

                # Every answer after the advance is recomputed and equals
                # a cold refit's on the from-scratch snapshot.
                fresh = LACA(model.config).fit(
                    scenario.graph_at(record.epoch)
                )
                misses = cache.misses
                for seed in probes:
                    np.testing.assert_array_equal(
                        service.cluster(seed, _SIZE),
                        fresh.cluster(seed, _SIZE),
                    )
                assert cache.misses - misses == len(set(probes))

    def test_drift_heavy_stream_invalidates_broadly(self):
        """Attribute drift rewrites attribute rows every epoch; each
        advance still invalidates exactly the live entries."""
        config = DynamicSBMConfig(
            n=200,
            n_communities=4,
            avg_degree=6.0,
            d=16,
            epochs=4,
            churn_fraction=0.0,
            birth_fraction=0.0,
            death_fraction=0.0,
            drift_fraction=0.5,
        )
        scenario = generate_dynamic_sbm(config, seed=3)
        model = LACA().fit(scenario.base)
        store = GraphStore(scenario.base, history=8)
        with ClusterService(model, store=store, cache_size=1024) as service:
            for record in scenario.records:
                for seed in range(0, 40, 5):
                    service.cluster(seed, _SIZE)
                before = service.stats()["cache"]
                live = before["size"]
                stats = service.apply_update(record.delta)
                assert stats["entries_invalidated"] == live > 0
