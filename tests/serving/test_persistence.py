"""Tests for model persistence: save/load round-trips."""

import numpy as np
import pytest

from repro.core.config import LacaConfig
from repro.core.pipeline import LACA
from repro.serving import load_model, save_model


class TestSaveLoadRoundTrip:
    def test_cluster_bitwise_equal(self, small_sbm, tmp_path):
        model = LACA(LacaConfig(k=8)).fit(small_sbm)
        path = save_model(model, tmp_path / "model")
        assert path.suffix == ".npz"
        loaded = load_model(path, small_sbm)
        for seed in (0, 17, 83):
            np.testing.assert_array_equal(
                loaded.cluster(seed, 25), model.cluster(seed, 25)
            )

    def test_scores_bitwise_equal(self, small_sbm, tmp_path):
        model = LACA(LacaConfig(k=8, metric="exp_cosine")).fit(small_sbm)
        loaded = load_model(save_model(model, tmp_path / "m"), small_sbm)
        np.testing.assert_array_equal(
            loaded.scores(5).scores, model.scores(5).scores
        )

    def test_config_round_trips(self, small_sbm, tmp_path):
        config = LacaConfig(
            alpha=0.85, sigma=0.05, epsilon=1e-5, k=8,
            metric="exp_cosine", delta=2.0, diffusion="greedy",
        )
        model = LACA(config).fit(small_sbm)
        loaded = load_model(save_model(model, tmp_path / "m"), small_sbm)
        assert loaded.config == config

    def test_no_snas_model(self, plain_graph, tmp_path):
        model = LACA(LacaConfig(k=8)).fit(plain_graph)
        assert model.tnam is None
        loaded = load_model(save_model(model, tmp_path / "m"), plain_graph)
        assert loaded.tnam is None
        np.testing.assert_array_equal(
            loaded.cluster(3, 20), model.cluster(3, 20)
        )

    def test_preprocessing_seconds_preserved(self, small_sbm, tmp_path):
        model = LACA(LacaConfig(k=8)).fit(small_sbm)
        loaded = load_model(save_model(model, tmp_path / "m"), small_sbm)
        assert loaded.preprocessing_seconds == model.preprocessing_seconds

    def test_load_without_suffix(self, small_sbm, tmp_path):
        model = LACA(LacaConfig(k=8)).fit(small_sbm)
        save_model(model, tmp_path / "m")
        loaded = load_model(tmp_path / "m", small_sbm)
        assert loaded.config == model.config

    def test_missing_archive_names_paths(self, small_sbm, tmp_path):
        with pytest.raises(FileNotFoundError, match="nowhere"):
            load_model(tmp_path / "nowhere", small_sbm)

    def test_wrong_graph_rejected(self, small_sbm, plain_graph, tmp_path):
        model = LACA(LacaConfig(k=8)).fit(small_sbm)
        path = save_model(model, tmp_path / "m")
        with pytest.raises(ValueError, match="n="):
            load_model(path, plain_graph)

    def test_same_size_different_graph_rejected(self, small_sbm, tmp_path):
        from repro.graphs.graph import AttributedGraph

        model = LACA(LacaConfig(k=8)).fit(small_sbm)
        path = save_model(model, tmp_path / "m")
        impostor = AttributedGraph(
            adjacency=small_sbm.adjacency,
            attributes=small_sbm.attributes,
            name="impostor",
        )
        with pytest.raises(ValueError, match="impostor"):
            load_model(path, impostor)

    def test_unfitted_model_cannot_be_saved(self, tmp_path):
        with pytest.raises(RuntimeError, match="fit"):
            save_model(LACA(), tmp_path / "m")


class TestEpochRoundTrip:
    def test_save_load_round_trips_epoch(self, small_sbm, tmp_path):
        from repro.graphs import GraphDelta, GraphStore

        config = LacaConfig(k=8)
        model = LACA(config).fit(small_sbm)
        store = GraphStore(small_sbm)
        head = store.apply(GraphDelta(add_edges=[(0, 60)]))
        model.refresh(store)
        path = save_model(model, tmp_path / "m")
        loaded = load_model(path, head)
        assert loaded.graph.epoch == 1
        np.testing.assert_array_equal(
            loaded.cluster(0, 20), model.cluster(0, 20)
        )

    def test_load_with_stale_epoch_graph_rejected(self, small_sbm, tmp_path):
        from repro.graphs import GraphDelta, GraphStore

        model = LACA(LacaConfig(k=8)).fit(small_sbm)
        store = GraphStore(small_sbm)
        store.apply(GraphDelta(add_edges=[(0, 60)]))
        model.refresh(store)
        path = save_model(model, tmp_path / "m")
        with pytest.raises(ValueError, match="epoch"):
            load_model(path, small_sbm)  # the epoch-0 snapshot
