"""Tests for :meth:`LACA.refresh`: tracking a store without refitting."""

import threading
import tracemalloc

import numpy as np
import pytest

import repro.attributes.tnam as tnam_module
from repro import parallel
from repro.core.config import LacaConfig
from repro.core.pipeline import LACA
from repro.graphs import AttributedGraph, GraphDelta, GraphStore


def _unit_rows(rng, n, d):
    rows = np.abs(rng.normal(size=(n, d))) + 0.05
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def _assert_matches_fresh_fit(model, config, graph, seeds, size=25):
    fresh = LACA(config).fit(graph)
    for seed in seeds:
        np.testing.assert_array_equal(
            model.cluster(seed, size), fresh.cluster(seed, size)
        )


class TestRefresh:
    def test_structural_refresh_is_free_and_exact(self, small_sbm):
        config = LacaConfig(k=16)
        model = LACA(config).fit(small_sbm)
        tnam_before = model.tnam
        store = GraphStore(small_sbm)
        store.apply(GraphDelta(add_edges=[(0, 60), (5, 90)]))
        store.apply(GraphDelta(remove_edges=[(0, 60)]))
        model.refresh(store)
        assert model.graph is store.head
        assert model.tnam is tnam_before  # attributes untouched: no work
        _assert_matches_fresh_fit(model, config, store.head, (0, 5, 60, 90))

    def test_attribute_refresh_updates_tnam(self, rng, small_sbm):
        config = LacaConfig(k=32)
        model = LACA(config).fit(small_sbm)
        store = GraphStore(small_sbm)
        store.apply(GraphDelta(
            set_attributes=([4, 33], _unit_rows(rng, 2, small_sbm.d))
        ))
        model.refresh(store)
        _assert_matches_fresh_fit(model, config, store.head, (0, 4, 33, 80))

    def test_node_append_refresh(self, rng, small_sbm):
        config = LacaConfig(k=32)
        model = LACA(config).fit(small_sbm)
        store = GraphStore(small_sbm)
        n = small_sbm.n
        store.apply(GraphDelta(
            add_nodes=2,
            add_edges=[(n, 0), (n, 3), (n + 1, 7)],
            add_attributes=_unit_rows(rng, 2, small_sbm.d),
            add_communities=[0, 1],
        ))
        model.refresh(store)
        assert model.graph.n == n + 2
        _assert_matches_fresh_fit(model, config, store.head, (0, n, n + 1))

    def test_multi_delta_catchup(self, rng, small_sbm):
        """A model several epochs behind folds all deltas in one refresh."""
        config = LacaConfig(k=32)
        model = LACA(config).fit(small_sbm)
        store = GraphStore(small_sbm)
        store.apply(GraphDelta(add_edges=[(1, 61)]))
        store.apply(GraphDelta(
            set_attributes=([9], _unit_rows(rng, 1, small_sbm.d))
        ))
        store.apply(GraphDelta(remove_edges=[(1, 61)]))
        model.refresh(store)
        assert model.graph.epoch == 3
        _assert_matches_fresh_fit(model, config, store.head, (0, 1, 9, 61))

    def test_history_overflow_falls_back_to_rebuild(self, rng, small_sbm):
        config = LacaConfig(k=16)
        model = LACA(config).fit(small_sbm)
        store = GraphStore(small_sbm, history=1)
        for node in (3, 14, 15):
            store.apply(GraphDelta(
                set_attributes=([node], _unit_rows(rng, 1, small_sbm.d))
            ))
        assert store.attribute_rows_since(0) is None
        model.refresh(store)
        # The rebuild is bitwise identical to a fresh fit.
        fresh = LACA(config).fit(store.head)
        np.testing.assert_array_equal(model.tnam.z, fresh.tnam.z)

    def test_refresh_same_epoch_is_noop(self, small_sbm):
        model = LACA(LacaConfig(k=16)).fit(small_sbm)
        store = GraphStore(small_sbm)
        tnam = model.tnam
        model.refresh(store)
        assert model.tnam is tnam
        assert model.graph is small_sbm

    def test_store_behind_model_rejected(self, small_sbm):
        model = LACA(LacaConfig(k=16)).fit(small_sbm)
        store = GraphStore(small_sbm)
        store.apply(GraphDelta(add_edges=[(0, 60)]))
        model.refresh(store)
        stale_store = GraphStore(small_sbm)  # still at epoch 0
        with pytest.raises(ValueError, match="behind"):
            model.refresh(stale_store)

    def test_refresh_requires_fit(self, small_sbm):
        with pytest.raises(RuntimeError, match="fit"):
            LACA().refresh(GraphStore(small_sbm))

    def test_non_snas_model_refresh(self, plain_graph):
        config = LacaConfig(k=8)
        model = LACA(config).fit(plain_graph)
        store = GraphStore(plain_graph)
        store.apply(GraphDelta(add_edges=[(0, 100)]))
        model.refresh(store)
        assert model.tnam is None
        _assert_matches_fresh_fit(model, config, store.head, (0, 100), size=15)

    def test_exp_cosine_refresh_matches_fresh_fit(self, rng, small_sbm):
        config = LacaConfig(k=16, metric="exp_cosine")
        model = LACA(config).fit(small_sbm)
        store = GraphStore(small_sbm)
        store.apply(GraphDelta(
            set_attributes=([11], _unit_rows(rng, 1, small_sbm.d))
        ))
        model.refresh(store)
        fresh = LACA(config).fit(store.head)
        np.testing.assert_array_equal(model.tnam.z, fresh.tnam.z)


class TestAttributeDeltaAllocation:
    def test_row_delta_never_forms_the_attribute_matrix(self, rng):
        """An 8-row delta at n = 40k, d = 128: ``store.apply`` plus
        ``refresh`` allocate less than half of one ``n × d`` matrix at
        their peak, and neither they nor a query form the head's
        contiguous matrix."""
        n, d = 40_000, 128
        ring = np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=1)
        chords = rng.integers(0, n, (2 * n, 2))
        graph = AttributedGraph.from_edges(
            n, np.concatenate([ring, chords]), attributes=_unit_rows(rng, n, d)
        )
        config = LacaConfig(k=32)
        model = LACA(config).fit(graph)
        store = GraphStore(graph)
        # two rows share block 0, a block boundary, the last partial block
        rows = np.array([5, 6, 1023, 1024, 9000, 20000, 30000, n - 1])
        delta = GraphDelta(set_attributes=(rows, _unit_rows(rng, 8, d)))
        tracemalloc.start()
        try:
            head = store.apply(delta)
            model.refresh(store)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * d * 8 / 2, f"peak {peak / 2**20:.1f} MiB"
        model.cluster(7, 20)
        assert "attributes" not in vars(head)  # the lazy matrix is unformed
        fresh = LACA(config).fit(head)
        np.testing.assert_array_equal(model.tnam.z, fresh.tnam.z)
        assert "attributes" not in vars(head)


class TestThreadedRefresh:
    @pytest.mark.parametrize("stage", ["_block_partials", "_normalize_features"])
    def test_a_failing_helper_fails_the_refresh_and_keeps_the_model(
        self, rng, monkeypatch, stage
    ):
        """An error in a helper thread's chunk — of the Gram partials or
        of the projection — comes out of ``refresh``, which then leaves
        the model on its old TNAM and graph and no helper running; the
        next refresh lands bitwise on a fresh fit."""
        n, d = 4 * 1024 + 100, 16
        ring = np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=1)
        graph = AttributedGraph.from_edges(n, ring, attributes=_unit_rows(rng, n, d))
        config = LacaConfig(k=8)
        model = LACA(config).fit(graph)
        tnam, head = model.tnam, model.graph
        store = GraphStore(graph)
        store.apply(GraphDelta(set_attributes=([5, 1500, n - 1], _unit_rows(rng, 3, d))))
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
        monkeypatch.setattr(parallel, "MIN_HELPER_WORK", 1)
        caller = threading.current_thread()
        real = getattr(tnam_module, stage)

        def failing_on_helpers(*args):
            if threading.current_thread() is not caller:
                raise RuntimeError("helper chunk failed")
            return real(*args)

        monkeypatch.setattr(tnam_module, stage, failing_on_helpers)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="helper chunk failed"):
            model.refresh(store)
        assert threading.active_count() == before
        assert model.tnam is tnam and model.graph is head
        monkeypatch.setattr(tnam_module, stage, real)
        model.refresh(store)
        fresh = LACA(config).fit(store.head)
        np.testing.assert_array_equal(model.tnam.z, fresh.tnam.z)
        np.testing.assert_array_equal(model.tnam.basis, fresh.tnam.basis)


class TestFitStateEpoch:
    def test_fit_state_round_trips_epoch_without_gram_blocks(
        self, rng, small_sbm
    ):
        """The Gram blocks are a cache, not state: the archive carries
        ``Z`` only, and the reloaded model's first attribute refresh is
        bitwise a fresh fit."""
        config = LacaConfig(k=16)
        model = LACA(config).fit(small_sbm)
        store = GraphStore(small_sbm)
        head = store.apply(GraphDelta(add_edges=[(2, 70)]))
        model.refresh(store)
        state = model.fit_state()
        assert int(state["graph_epoch"]) == 1
        assert "tnam_y" not in state and "tnam_basis" not in state
        reborn = LACA.from_fit_state(state, head)
        assert reborn.graph.epoch == 1
        assert reborn.tnam.blocks is None
        np.testing.assert_array_equal(reborn.tnam.z, model.tnam.z)
        store.apply(GraphDelta(
            set_attributes=([6], _unit_rows(rng, 1, small_sbm.d))
        ))
        reborn.refresh(store)
        fresh = LACA(config).fit(store.head)
        np.testing.assert_array_equal(reborn.tnam.z, fresh.tnam.z)
        np.testing.assert_array_equal(reborn.tnam.basis, fresh.tnam.basis)

    def test_epoch_mismatch_rejected(self, small_sbm):
        model = LACA(LacaConfig(k=16)).fit(small_sbm)
        store = GraphStore(small_sbm)
        head = store.apply(GraphDelta(add_edges=[(2, 70)]))
        model.refresh(store)
        with pytest.raises(ValueError, match="epoch"):
            LACA.from_fit_state(model.fit_state(), small_sbm)  # epoch 0 graph

    def test_reloaded_model_refresh_is_bitwise_a_fresh_fit(self, rng, small_sbm):
        """A reloaded model rebuilds its Gram blocks on its first
        attribute delta and keeps updating from them: each refresh is
        bitwise a fresh fit, and the second reuses the blocks."""
        config = LacaConfig(k=32)
        model = LACA(config).fit(small_sbm)
        reborn = LACA.from_fit_state(model.fit_state(), small_sbm)
        store = GraphStore(small_sbm)
        for node in (6, 90):
            store.apply(GraphDelta(
                set_attributes=([node], _unit_rows(rng, 1, small_sbm.d))
            ))
            blocks = reborn.tnam.blocks
            reborn.refresh(store)
            fresh = LACA(config).fit(store.head)
            np.testing.assert_array_equal(reborn.tnam.z, fresh.tnam.z)
            _assert_matches_fresh_fit(reborn, config, store.head, (0, node))
        assert blocks is not None and reborn.tnam.blocks.rows == blocks.rows

    def test_archive_with_pre_block_keys_loads(self, rng, small_sbm):
        """Archives that still carry ``tnam_y``/``tnam_basis`` load as
        before, answer bitwise like the saved model, and refresh
        bitwise like a fresh fit."""
        config = LacaConfig(k=16)
        model = LACA(config).fit(small_sbm)
        state = dict(model.fit_state())
        state["tnam_y"] = np.ones((small_sbm.n, 16))
        state["tnam_basis"] = np.ones((16, small_sbm.d))
        reborn = LACA.from_fit_state(state, small_sbm)
        for seed in (0, 50):
            np.testing.assert_array_equal(
                reborn.cluster(seed, 25), model.cluster(seed, 25)
            )
        store = GraphStore(small_sbm)
        store.apply(GraphDelta(
            set_attributes=([3], _unit_rows(rng, 1, small_sbm.d))
        ))
        reborn.refresh(store)
        fresh = LACA(config).fit(store.head)
        np.testing.assert_array_equal(reborn.tnam.z, fresh.tnam.z)
