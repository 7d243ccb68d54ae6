"""Epoch-aware cache behavior under a long evolving-scenario replay.

PR 5 pinned single-delta promotion/invalidation semantics; these tests
drive the cache through a *stream* of scenario epochs and assert the
two properties that make epoch-aware caching trustworthy at scale:

* every entry the cache promotes across an epoch advance still equals
  a fresh ``LACA.cluster`` on the from-scratch snapshot at the new
  epoch (promotion never serves a stale answer), and
* the promoted/invalidated counters match the trace's overlap
  structure exactly — an entry survives iff its recorded support is
  disjoint from the delta's touched set and the delta rewrote no
  attribute row (a TNAM refresh moves every row of Z).
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
    # Structure-dominated evolution: sparse, localized churn keeps many
    # query supports disjoint from each delta, so promotion actually
    # fires for a model without a TNAM.  Every epoch also re-draws some
    # attribute rows (churn and births do), which invalidates every
    # answer of a TNAM model.
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
    def test_promotions_exact_and_counters_match_overlap(self, scenario, use_snas):
        # A large epsilon keeps diffusion supports local (output volume
        # is O(1/((1-α)ε))); with the paper-default 1e-6 every support
        # spans the whole graph and nothing could ever be promoted.
        config = LacaConfig(epsilon=0.05, use_snas=use_snas)
        model = LACA(config).fit(scenario.base)
        store = GraphStore(scenario.base, history=scenario.epochs + 1)
        probes = _probe_seeds(scenario)
        promoted_total = invalidated_total = 0

        with ClusterService(model, store=store, cache_size=4096) as service:
            for record in scenario.records:
                for seed in probes:
                    service.cluster(seed, _SIZE)

                n_prev = store.head.n
                expected_epoch = store.head.epoch
                touched = record.delta.touched_nodes(n_prev)
                attribute_delta = (
                    use_snas and record.delta.attribute_rows(n_prev).size > 0
                )
                cache = service.cache
                with cache._lock:
                    entries = list(cache._entries.items())
                expected_promoted = sum(
                    1
                    for key, (_, support) in entries
                    if key[4] == expected_epoch
                    and not attribute_delta
                    and support is not None
                    and (
                        touched.size == 0
                        or not np.isin(
                            support, touched, assume_unique=True
                        ).any()
                    )
                )
                expected_invalidated = len(entries) - expected_promoted

                stats = service.apply_update(record.delta)
                assert stats["entries_promoted"] == expected_promoted
                assert stats["entries_invalidated"] == expected_invalidated
                promoted_total += expected_promoted
                invalidated_total += expected_invalidated

                # Every surviving entry must equal a cold refit's answer
                # on the from-scratch snapshot at the new epoch.
                fresh = LACA(model.config).fit(
                    scenario.graph_at(record.epoch)
                )
                with cache._lock:
                    survivors = [
                        (key, cluster)
                        for key, (cluster, _) in cache._entries.items()
                    ]
                assert len(survivors) == expected_promoted
                for key, cluster in survivors:
                    seed, size = key[1], key[2]
                    np.testing.assert_array_equal(
                        cluster, fresh.cluster(seed, size)
                    )
                # ... and the service serves them (hit or recompute)
                # bitwise-identically to that refit.
                for seed in probes:
                    np.testing.assert_array_equal(
                        service.cluster(seed, _SIZE),
                        fresh.cluster(seed, _SIZE),
                    )

        # Without a TNAM the replay exercises both outcomes; with one,
        # every epoch's attribute rows leave nothing to promote.
        assert invalidated_total > 0
        assert (promoted_total == 0) if use_snas else (promoted_total > 0)

    def test_drift_heavy_stream_invalidates_broadly(self):
        """Attribute drift rewrites attribute rows every epoch, so no entry
        of the TNAM model is promoted, and the counters still reconcile
        epoch by epoch."""
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
                assert stats["entries_promoted"] == 0
                assert stats["entries_invalidated"] == live > 0
