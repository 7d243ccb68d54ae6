"""Tests for the batched LACA path: laca_scores_batch and the pipeline.

The batched path must be an *equivalent reformulation*, not an
approximation: every column's scores are bitwise the sequential
``laca_scores`` answer, because Step 2 runs through the same code on
both paths, including the edge cases (B=1, duplicate seeds, zero-φ′
columns, non-attributed graphs) and across every registered synthetic
dataset.
"""

import numpy as np
import pytest

from repro.attributes.tnam import TNAM
from repro.core.config import LacaConfig
from repro.core.laca import laca_scores, laca_scores_batch
from repro.core.pipeline import LACA
from repro.graphs.datasets import dataset_names, load_dataset

ENGINES = ["greedy", "nongreedy", "adaptive", "push"]

#: Step 2 variants: the two SNAS metrics and the attribute-free ablation.
VARIANTS = {
    "cosine": {"metric": "cosine"},
    "exp_cosine": {"metric": "exp_cosine"},
    "no_snas": {"metric": "cosine", "use_snas": False},
}


def _config(engine="greedy", **overrides):
    overrides.setdefault("k", 8)
    overrides.setdefault("metric", "cosine")
    return LacaConfig(diffusion=engine, **overrides)


def _fit(graph, config):
    return LACA(config).fit(graph)


def _assert_columns_bitwise(batch, graph, seeds, config, tnam):
    assert len(batch) == len(seeds)
    for result, seed in zip(batch, seeds):
        seq = laca_scores(graph, seed, config=config, tnam=tnam)
        assert result.seed == seed
        np.testing.assert_array_equal(result.scores, seq.scores)


class TestScoresParity:
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    @pytest.mark.parametrize("engine", ENGINES)
    def test_columns_match_sequential(self, small_sbm, engine, variant):
        config = _config(engine, **VARIANTS[variant])
        model = _fit(small_sbm, config)
        seeds = [0, 5, 33, 60]
        batch = laca_scores_batch(small_sbm, seeds, config=config, tnam=model.tnam)
        _assert_columns_bitwise(batch, small_sbm, seeds, config, model.tnam)

    @pytest.mark.parametrize("epsilon", [1e-4, 1e-6])
    @pytest.mark.parametrize("engine", ENGINES)
    def test_saturating_columns_match_sequential(self, engine, epsilon):
        """On the arxiv analog at ε = 1e-6 every column reaches all n, so
        Step 2 reads Z in place; at 1e-4 it gathers the support rows."""
        graph = load_dataset("arxiv", scale=0.1)
        config = _config(engine, epsilon=epsilon)
        model = _fit(graph, config)
        seeds = [3, 150, 411, 799]
        batch = model.scores_batch(seeds)
        _assert_columns_bitwise(batch, graph, seeds, config, model.tnam)

    def test_single_seed_batch(self, small_sbm):
        config = _config()
        model = _fit(small_sbm, config)
        batch = laca_scores_batch(small_sbm, [7], config=config, tnam=model.tnam)
        assert len(batch) == 1
        _assert_columns_bitwise(batch, small_sbm, [7], config, model.tnam)

    def test_duplicate_seeds_identical_columns(self, small_sbm):
        config = _config()
        model = _fit(small_sbm, config)
        batch = laca_scores_batch(
            small_sbm, [9, 9, 41, 9], config=config, tnam=model.tnam
        )
        np.testing.assert_array_equal(batch[0].scores, batch[1].scores)
        np.testing.assert_array_equal(batch[0].scores, batch[3].scores)

    def test_non_attributed_graph(self, plain_graph):
        config = _config()
        seeds = [0, 10, 55]
        batch = laca_scores_batch(plain_graph, seeds, config=config)
        _assert_columns_bitwise(batch, plain_graph, seeds, config, None)

    def test_query_is_the_sequential_result(self, small_sbm):
        """Each element carries its seed's diagnostics and clusters like
        the sequential result."""
        config = _config()
        model = _fit(small_sbm, config)
        seeds = [0, 5, 33]
        batch = model.scores_batch(seeds)
        for result, seed in zip(batch, seeds):
            seq = model.scores(seed)
            assert result.seed == seed
            np.testing.assert_array_equal(result.scores, seq.scores)
            np.testing.assert_array_equal(result.rwr.q, seq.rwr.q)
            np.testing.assert_array_equal(result.bdd.q, seq.bdd.q)
            np.testing.assert_array_equal(result.psi, seq.psi)
            # Column views of the block engine's n × B reserve block.
            assert result.bdd.q.base is batch[0].bdd.q.base is not None
            assert result.scores_support is None
            np.testing.assert_array_equal(result.cluster(12), model.cluster(seed, 12))


class TestZeroMassColumns:
    """Seeds whose entire RWR support has zero TNAM rows get ψ = 0 and
    hence φ′ = 0 (Eq. 13): their Step 3 must be skipped, yielding
    all-zero scores, without disturbing live columns."""

    @pytest.fixture()
    def two_triangles(self):
        """Two *disconnected* triangles, so seed supports never mix."""
        from repro.graphs.graph import AttributedGraph

        edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        attrs = np.eye(6, 3, dtype=float).repeat(2, axis=0)[:6]
        communities = np.array([0, 0, 0, 1, 1, 1])
        return AttributedGraph.from_edges(
            6, edges, attributes=attrs, communities=communities, name="triangles"
        )

    def _tnam(self, n, dead_nodes):
        z = np.ones((n, 2))
        z[dead_nodes] = 0.0
        return TNAM(z=z, metric="cosine", k=2)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_zero_phi_column_among_live_ones(self, two_triangles, engine):
        config = LacaConfig(metric="cosine", k=2, diffusion=engine, epsilon=1e-3)
        tnam = self._tnam(two_triangles.n, dead_nodes=[0, 1, 2])
        seeds = [0, 4, 1, 3]
        batch = laca_scores_batch(two_triangles, seeds, config=config, tnam=tnam)
        _assert_columns_bitwise(batch, two_triangles, seeds, config, tnam)
        dead, live = [batch[0], batch[2]], [batch[1], batch[3]]
        assert all(result.scores.sum() == 0.0 for result in dead)
        assert all(result.scores.sum() > 0.0 for result in live)
        assert [result.support_size for result in dead] == [0, 0]
        # Diagnostics for the dead columns are all-zero but still aligned.
        assert [result.bdd.iterations for result in dead] == [0, 0]
        assert all(result.bdd.iterations > 0 for result in live)

    def test_all_columns_zero_mass(self, two_triangles):
        config = LacaConfig(metric="cosine", k=2, diffusion="greedy", epsilon=1e-3)
        tnam = self._tnam(two_triangles.n, dead_nodes=list(range(6)))
        batch = laca_scores_batch(two_triangles, [0, 3], config=config, tnam=tnam)
        for result in batch:
            assert result.scores.sum() == 0.0
            assert not result.bdd.q.any() and not result.bdd.residual.any()
            assert result.bdd.iterations == 0
        # Clusters still contain the forced seed plus index-order filler.
        cluster = batch[0].cluster(3)
        assert 0 in cluster
        np.testing.assert_array_equal(
            cluster, laca_scores(two_triangles, 0, config, tnam).cluster(3)
        )


class TestClusterEquality:
    def test_clusters_equal_sequential_cluster_many(self, medium_sbm):
        """Batch clusters == per-seed sequential clusters for every seed."""
        config = _config("greedy", k=16)
        model = _fit(medium_sbm, config)
        rng = np.random.default_rng(3)
        seeds = [int(s) for s in rng.choice(medium_sbm.n, size=12, replace=False)]
        batched = model.cluster_many(seeds)
        sequential = model.cluster_many(seeds, batch_size=1)
        assert set(batched) == set(sequential)
        for seed in seeds:
            np.testing.assert_array_equal(batched[seed], sequential[seed])

    @pytest.mark.parametrize("dataset", dataset_names())
    def test_registered_datasets_identical_clusters(self, dataset):
        """Acceptance bar: batch == sequential on every registered dataset."""
        graph = load_dataset(dataset, scale=0.05)
        config = _config("greedy", k=8)
        model = _fit(graph, config)
        rng = np.random.default_rng(0)
        seeds = [int(s) for s in rng.choice(graph.n, size=4, replace=False)]
        batch = model.scores_batch(seeds)
        for result, seed in zip(batch, seeds):
            size = graph.ground_truth_cluster(seed).shape[0]
            np.testing.assert_array_equal(
                result.cluster(size), model.cluster(seed, size)
            )


class TestClusterManyRouting:
    """cluster_many answers local blocks sequentially and saturating
    blocks' remainders with the block engine; clusters are unchanged."""

    @pytest.mark.parametrize(
        "scale, epsilon, block_calls",
        [(0.25, 1e-4, 0), (0.1, 1e-6, 2)],  # local, then saturating
    )
    def test_clusters_unchanged(self, scale, epsilon, block_calls, monkeypatch):
        graph = load_dataset("arxiv", scale=scale)
        model = _fit(graph, _config("greedy", epsilon=epsilon))
        rng = np.random.default_rng(5)
        seeds = [int(s) for s in rng.choice(graph.n, 8, replace=False)]
        block_only = {}
        for lo in (0, 4):
            for result in model.scores_batch(seeds[lo : lo + 4]):
                block_only[result.seed] = result.cluster(15)
        widths = []
        original = model.scores_batch

        def counting(chunk):
            widths.append(len(chunk))
            return original(chunk)

        monkeypatch.setattr(model, "scores_batch", counting)
        routed = model.cluster_many(seeds, size=15, batch_size=4)
        assert widths == [3] * block_calls
        for seed in seeds:
            np.testing.assert_array_equal(routed[seed], model.cluster(seed, 15))
            np.testing.assert_array_equal(routed[seed], block_only[seed])

    def test_cluster_block_validates_sizes(self, small_sbm):
        model = _fit(small_sbm, _config("greedy"))
        with pytest.raises(ValueError, match="cluster sizes"):
            model.cluster_block([0, 1], [5])


class TestPipelineBatchAPI:
    def test_scores_batch_requires_fit(self):
        with pytest.raises(RuntimeError, match="fit"):
            LACA().scores_batch([0])

    def test_chunked_equals_single_block(self, small_sbm):
        model = _fit(small_sbm, _config("greedy"))
        seeds = [0, 5, 9, 33, 60]
        whole = model.cluster_many(seeds, size=12)
        chunked = model.cluster_many(seeds, size=12, batch_size=2)
        for seed in seeds:
            np.testing.assert_array_equal(whole[seed], chunked[seed])

    def test_invalid_batch_size(self, small_sbm):
        model = _fit(small_sbm, _config("greedy"))
        with pytest.raises(ValueError, match="batch_size"):
            model.cluster_many([0, 1], size=5, batch_size=0)

    def test_out_of_range_seed(self, small_sbm):
        model = _fit(small_sbm, _config("greedy"))
        with pytest.raises(IndexError, match="out of range"):
            model.scores_batch([0, small_sbm.n])

    def test_missing_tnam_rejected(self, small_sbm):
        with pytest.raises(ValueError, match="TNAM"):
            laca_scores_batch(small_sbm, [0], config=_config("greedy"))

    def test_batch_result_diagnostics(self, small_sbm):
        model = _fit(small_sbm, _config("greedy"))
        seeds = [0, 5]
        batch = model.scores_batch(seeds)
        assert [result.seed for result in batch] == seeds
        for result in batch:
            assert result.rwr.iterations > 0 and result.bdd.iterations > 0
            assert result.rwr.touched is None and result.bdd.touched is None
            assert result.psi is not None and result.psi.shape == (model.tnam.z.shape[1],)
            assert result.support_size > 0
            assert result.scores.flags.c_contiguous
