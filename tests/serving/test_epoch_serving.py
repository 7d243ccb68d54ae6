"""Tests for epoch-aware serving: live updates through ClusterService.

Acceptance (c): post-update serving never returns a pre-epoch cached
cluster whose support intersects the delta — pinned both directly
(intersecting queries re-answered on the new snapshot match a fresh
fit) and under an interleaved update/query thread storm where every
returned cluster must equal the fresh-fit answer of *some* epoch that
was live while the query was in flight.
"""

import threading
from concurrent.futures import wait

import numpy as np
import pytest

from repro.core.config import LacaConfig
from repro.core.pipeline import LACA
from repro.graphs import AttributedGraph, GraphDelta, GraphStore
from repro.serving import ClusterService


def _fresh_answer(graph, config, seed, size):
    return LACA(config).fit(graph).cluster(seed, size)


@pytest.fixture()
def two_component_graph(rng):
    """Two attribute-coherent communities joined by nothing.

    Disconnected components make promotion deterministic: a delta in
    one component provably cannot touch a diffusion seeded in the
    other, so its cached answers must survive the epoch advance.
    """
    edges = []
    for base in (0, 8):
        for i in range(8):
            for j in range(i + 1, 8):
                if (i + j) % 3 != 0 or j == i + 1:
                    edges.append((base + i, base + j))
    attrs = np.abs(rng.normal(size=(16, 6))) + 0.05
    return AttributedGraph.from_edges(16, edges, attributes=attrs, name="two-comp")


class TestApplyUpdate:
    def test_update_moves_epoch_and_answers_track_head(self, small_sbm):
        config = LacaConfig(k=16)
        model = LACA(config).fit(small_sbm)
        with ClusterService(model, cache_size=64) as service:
            before = service.cluster(0, 20)
            out = service.apply_update(GraphDelta(add_edges=[(0, 60), (0, 90)]))
            assert out["epoch"] == 1 and service.epoch == 1
            after = service.cluster(0, 20)
            np.testing.assert_array_equal(
                after, _fresh_answer(service.store.head, config, 0, 20)
            )
            # the pre-update answer stayed keyed at epoch 0 — the
            # post-update query was answered by the engine, not the cache
            assert service.stats()["cache_served"] == 0

    def test_intersecting_cache_entry_never_served_post_update(self, small_sbm):
        config = LacaConfig(k=16)
        model = LACA(config).fit(small_sbm)
        with ClusterService(model, cache_size=64) as service:
            stale = service.cluster(3, 20)
            service.cluster(3, 20)  # now cached
            assert service.stats()["cache_served"] == 1
            service.apply_update(GraphDelta(add_edges=[(3, 77)]))
            fresh = service.cluster(3, 20)
            np.testing.assert_array_equal(
                fresh, _fresh_answer(service.store.head, config, 3, 20)
            )
            stats = service.stats()
            assert stats["cache"]["invalidations"] >= 1

    def test_disjoint_entries_are_promoted_and_hit(self, two_component_graph):
        config = LacaConfig(k=6)
        model = LACA(config).fit(two_component_graph)
        with ClusterService(model, cache_size=64) as service:
            left = service.cluster(0, 4)    # component A
            service.cluster(8, 4)           # component B
            out = service.apply_update(GraphDelta(remove_edges=[(8, 9)]))
            assert out["entries_promoted"] >= 1
            hit = service.cluster(0, 4)     # A untouched: promoted entry hits
            np.testing.assert_array_equal(hit, left)
            stats = service.stats()
            assert stats["cache_served"] == 1
            # and the promoted answer is still bitwise exact
            np.testing.assert_array_equal(
                hit, _fresh_answer(service.store.head, config, 0, 4)
            )

    def test_attribute_delta_invalidates_every_tnam_answer(
        self, rng, two_component_graph
    ):
        """A TNAM refresh moves every row of Z (the k-SVD basis and y* are
        global), so an attribute delta promotes nothing, even an entry in
        the other component; an edge-only delta still promotes it."""
        config = LacaConfig(k=6)
        model = LACA(config).fit(two_component_graph)
        seeds = [0, 3, 8]
        with ClusterService(model, cache_size=64) as service:
            for seed in seeds:
                service.cluster(seed, 4)
            row = np.abs(rng.normal(size=(1, two_component_graph.d))) + 0.05
            out = service.apply_update(GraphDelta(set_attributes=([9], row)))
            assert out["entries_promoted"] == 0
            assert out["entries_invalidated"] == len(seeds)
            head = service.store.head
            for seed in seeds:
                np.testing.assert_array_equal(
                    service.cluster(seed, 4), _fresh_answer(head, config, seed, 4)
                )
            out = service.apply_update(GraphDelta(remove_edges=[(8, 9)]))
            assert out["entries_promoted"] == 2  # seeds 0 and 3
            head = service.store.head
            for seed in seeds:
                np.testing.assert_array_equal(
                    service.cluster(seed, 4), _fresh_answer(head, config, seed, 4)
                )

    def test_update_with_node_append_extends_seed_range(self, rng, small_sbm):
        config = LacaConfig(k=16)
        model = LACA(config).fit(small_sbm)
        n = small_sbm.n
        with ClusterService(model, cache_size=16) as service:
            with pytest.raises(IndexError):
                service.submit(n, 10)
            attrs = np.abs(rng.normal(size=(1, small_sbm.d))) + 0.05
            service.apply_update(GraphDelta(
                add_nodes=1,
                add_edges=[(n, 0), (n, 1)],
                add_attributes=attrs,
                add_communities=[0],
            ))
            cluster = service.cluster(n, 10)
            np.testing.assert_array_equal(
                cluster, _fresh_answer(service.store.head, config, n, 10)
            )

    def test_invalid_delta_leaves_service_serving(self, small_sbm):
        model = LACA(LacaConfig(k=16)).fit(small_sbm)
        with ClusterService(model, cache_size=16) as service:
            before = service.cluster(0, 10)
            neighbors = set(small_sbm.neighbors(0))
            absent = next(
                v for v in range(1, small_sbm.n) if v not in neighbors
            )
            with pytest.raises(ValueError, match="not present"):
                service.apply_update(GraphDelta(remove_edges=[(0, absent)]))
            assert service.epoch == 0
            np.testing.assert_array_equal(service.cluster(0, 10), before)

    def test_shared_store_across_service_and_caller(self, small_sbm):
        config = LacaConfig(k=16)
        model = LACA(config).fit(small_sbm)
        store = GraphStore(small_sbm)
        with ClusterService(model, cache_size=16, store=store) as service:
            assert service.store is store
            service.apply_update(GraphDelta(add_edges=[(4, 44)]))
            assert store.epoch == 1

    def test_service_over_advanced_store_refreshes_at_construction(
        self, small_sbm
    ):
        config = LacaConfig(k=16)
        model = LACA(config).fit(small_sbm)
        store = GraphStore(small_sbm)
        store.apply(GraphDelta(add_edges=[(2, 52)]))
        with ClusterService(model, cache_size=16, store=store) as service:
            assert service.epoch == 1
            np.testing.assert_array_equal(
                service.cluster(2, 15), _fresh_answer(store.head, config, 2, 15)
            )

    def test_update_telemetry_recorded(self, small_sbm):
        model = LACA(LacaConfig(k=16)).fit(small_sbm)
        with ClusterService(model, cache_size=16) as service:
            service.cluster(0, 10)
            service.apply_update(GraphDelta(add_edges=[(0, 33)]))
            stats = service.stats()
            assert stats["updates"] == 1
            assert stats["update_seconds"] > 0.0
            assert stats["p50_update_s"] > 0.0
            assert stats["epoch"] == 1

    def test_update_summary_reports_refresh_time(self, rng, small_sbm):
        model = LACA(LacaConfig(k=16)).fit(small_sbm)
        row = np.abs(rng.normal(size=(1, small_sbm.attributes.shape[1])))
        with ClusterService(model, workers=0) as service:
            out = service.apply_update(GraphDelta(set_attributes=([5], row)))
        assert 0.0 <= out["refresh_s"] <= out["update_s"]

    def test_closed_service_rejects_updates(self, small_sbm):
        model = LACA(LacaConfig(k=16)).fit(small_sbm)
        service = ClusterService(model, cache_size=16)
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            service.apply_update(GraphDelta(add_edges=[(0, 33)]))

    def test_failed_refresh_fails_closed(self, small_sbm, monkeypatch):
        """If the model refresh dies mid-update the service must stop
        serving: its epoch is already ahead of the model, and answering
        anyway would cache stale clusters under fresh epoch keys."""
        model = LACA(LacaConfig(k=16)).fit(small_sbm)
        service = ClusterService(model, cache_size=16)
        try:
            service.cluster(0, 10)

            def boom(_store):
                raise RuntimeError("refresh exploded")

            monkeypatch.setattr(model, "refresh", boom)
            with pytest.raises(RuntimeError, match="refresh exploded"):
                service.apply_update(GraphDelta(add_edges=[(0, 33)]))
            with pytest.raises(RuntimeError, match="failed"):
                service.submit(0, 10)
            with pytest.raises(RuntimeError, match="failed"):
                service.apply_update(GraphDelta(add_edges=[(1, 34)]))
        finally:
            service.close()

    def test_shared_store_advanced_externally_keeps_epochs_honest(
        self, small_sbm
    ):
        """Another consumer applying deltas to a shared store between a
        service's apply_update and its refresh must not leave answers
        cached under an epoch older than the snapshot that produced
        them: the serving epoch follows the model's actual snapshot."""
        config = LacaConfig(k=16)
        model = LACA(config).fit(small_sbm)
        store = GraphStore(small_sbm)
        with ClusterService(model, cache_size=64, store=store) as service:
            service.cluster(3, 20)
            # external consumer advances the store around the service
            store.apply(GraphDelta(add_edges=[(50, 51)]))
            out = service.apply_update(GraphDelta(add_edges=[(3, 77)]))
            # the service lands on the store's true head epoch (2), not
            # the marker's (it believed it was creating epoch 2 already
            # — but crucially epoch always equals the model's snapshot)
            assert service.epoch == model.graph.epoch == store.epoch
            fresh = LACA(config).fit(store.head)
            np.testing.assert_array_equal(
                service.cluster(3, 20), fresh.cluster(3, 20)
            )


class TestInterleavedUpdatesAndQueries:
    def test_storm_every_answer_matches_a_live_epoch(self, small_sbm):
        """Acceptance (c), adversarial form: reader threads hammer the
        service while a writer applies deltas; every answer must be the
        fresh-fit answer of an epoch that was live during the query, and
        answers observed strictly after an update completes must never
        be a stale intersecting pre-epoch cluster."""
        config = LacaConfig(k=16)
        model = LACA(config).fit(small_sbm)
        seeds = [0, 7, 33, 64, 99]
        size = 20
        deltas = [
            GraphDelta(add_edges=[(0, 70), (7, 81)]),
            GraphDelta(add_edges=[(33, 5)], remove_edges=[(0, 70)]),
            GraphDelta(add_edges=[(64, 12), (99, 3)]),
        ]
        # Precompute the valid answer per (epoch, seed).
        store_probe = GraphStore(small_sbm)
        valid = {0: {s: _fresh_answer(small_sbm, config, s, size) for s in seeds}}
        for e, delta in enumerate(deltas, start=1):
            head = store_probe.apply(delta)
            valid[e] = {s: _fresh_answer(head, config, s, size) for s in seeds}

        mismatches = []
        stop = threading.Event()
        with ClusterService(model, cache_size=128, max_batch=8) as service:
            def reader():
                rng = np.random.default_rng(threading.get_ident() % 2**31)
                while not stop.is_set():
                    seed = seeds[int(rng.integers(len(seeds)))]
                    epoch_before = service.epoch
                    cluster = service.cluster(seed, size)
                    epoch_after = service.epoch
                    ok = any(
                        np.array_equal(cluster, valid[e][seed])
                        for e in range(epoch_before, epoch_after + 1)
                    )
                    if not ok:
                        mismatches.append((seed, epoch_before, epoch_after))

            threads = [threading.Thread(target=reader) for _ in range(4)]
            for thread in threads:
                thread.start()
            try:
                for delta in deltas:
                    # let readers warm the cache at this epoch first
                    wait(service.submit_many(seeds, size))
                    service.apply_update(delta)
                    # post-update: intersecting queries must be fresh
                    for seed in seeds:
                        np.testing.assert_array_equal(
                            service.cluster(seed, size),
                            valid[service.epoch][seed],
                        )
            finally:
                stop.set()
                for thread in threads:
                    thread.join()
        assert not mismatches, mismatches[:5]
        assert service.epoch == len(deltas)
