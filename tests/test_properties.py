"""Cross-cutting property-based tests (hypothesis) on core invariants.

Beyond the per-module property tests, these exercise compositions of the
core data structures over randomly generated inputs: cluster extraction,
metrics algebra, sweep-cut consistency, and LACA's path independence.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.laca import top_k_cluster
from repro.core.pipeline import LACA
from repro.core.sweep import sweep_cut
from repro.eval.metrics import conductance, f1_score, precision, recall
from repro.graphs.generators import SBMConfig, attributed_sbm


def _graph(seed: int):
    config = SBMConfig(n=70, n_communities=3, avg_degree=6.0, d=10)
    return attributed_sbm(config, seed=seed)


class TestTopKProperties:
    @given(
        seed=st.integers(min_value=0, max_value=500),
        size=st.integers(min_value=1, max_value=60),
        node=st.integers(min_value=0, max_value=69),
    )
    @settings(max_examples=50, deadline=None)
    def test_size_seed_and_uniqueness(self, seed, size, node):
        rng = np.random.default_rng(seed)
        scores = rng.random(70) * (rng.random(70) < 0.5)
        cluster = top_k_cluster(scores, size, seed=node)
        assert cluster.shape[0] == min(size, 70)
        assert node in cluster
        assert np.unique(cluster).shape[0] == cluster.shape[0]

    @given(seed=st.integers(min_value=0, max_value=200))
    @settings(max_examples=30, deadline=None)
    def test_monotone_in_size(self, seed):
        """A larger cluster always contains the smaller one."""
        rng = np.random.default_rng(seed)
        scores = rng.random(50)
        small = set(top_k_cluster(scores, 5, seed=0))
        large = set(top_k_cluster(scores, 20, seed=0))
        assert small <= large


class TestMetricAlgebra:
    @given(
        seed=st.integers(min_value=0, max_value=300),
        k=st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=50, deadline=None)
    def test_precision_recall_duality(self, seed, k):
        """With |Cs| = |Ys|, precision equals recall exactly."""
        rng = np.random.default_rng(seed)
        truth = rng.choice(100, size=k, replace=False)
        predicted = rng.choice(100, size=k, replace=False)
        assert precision(predicted, truth) == recall(predicted, truth)

    @given(seed=st.integers(min_value=0, max_value=300))
    @settings(max_examples=40, deadline=None)
    def test_f1_between_min_and_max(self, seed):
        rng = np.random.default_rng(seed)
        truth = rng.choice(60, size=rng.integers(1, 30), replace=False)
        predicted = rng.choice(60, size=rng.integers(1, 30), replace=False)
        p, r = precision(predicted, truth), recall(predicted, truth)
        f1 = f1_score(predicted, truth)
        assert min(p, r) - 1e-12 <= f1 <= max(p, r) + 1e-12

    @given(
        graph_seed=st.integers(min_value=0, max_value=40),
        set_seed=st.integers(min_value=0, max_value=100),
        size=st.integers(min_value=1, max_value=35),
    )
    @settings(max_examples=40, deadline=None)
    def test_conductance_complement_symmetry(self, graph_seed, set_seed, size):
        """φ(C) = φ(V∖C): cut is shared, min-volume side is shared."""
        graph = _graph(graph_seed)
        rng = np.random.default_rng(set_seed)
        cluster = rng.choice(graph.n, size=size, replace=False)
        complement = np.setdiff1d(np.arange(graph.n), cluster)
        assert np.isclose(
            conductance(graph, cluster), conductance(graph, complement)
        )


class TestSweepProperties:
    @given(
        graph_seed=st.integers(min_value=0, max_value=30),
        score_seed=st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=30, deadline=None)
    def test_sweep_minimum_is_achievable(self, graph_seed, score_seed):
        graph = _graph(graph_seed)
        rng = np.random.default_rng(score_seed)
        scores = rng.random(graph.n)
        result = sweep_cut(graph, scores)
        assert np.isclose(
            conductance(graph, result.cluster), result.conductance
        )
        assert (result.profile >= result.conductance - 1e-12).all()


class TestLacaPathIndependence:
    @given(
        graph_seed=st.integers(min_value=0, max_value=40),
        seeds_seed=st.integers(min_value=0, max_value=1000),
        width=st.integers(min_value=1, max_value=6),
        engine=st.sampled_from(["greedy", "nongreedy", "adaptive", "push"]),
        step2=st.sampled_from(["cosine", "exp_cosine", "no_snas"]),
        epsilon=st.sampled_from([1e-3, 1e-5, 1e-7]),
    )
    @settings(max_examples=40, deadline=None)
    def test_block_columns_are_bitwise_sequential(
        self, graph_seed, seeds_seed, width, engine, step2, epsilon
    ):
        """Every column of ``scores_batch`` is bitwise ``scores(seed)``."""
        graph = _graph(graph_seed)
        model = LACA(
            metric="cosine" if step2 == "no_snas" else step2,
            use_snas=step2 != "no_snas",
            diffusion=engine,
            epsilon=epsilon,
            k=4,
        ).fit(graph)
        seeds = np.random.default_rng(seeds_seed).choice(graph.n, size=width)
        batch = model.scores_batch(seeds)
        assert len(batch) == len(seeds)
        for result, seed in zip(batch, seeds):
            assert result.seed == seed
            np.testing.assert_array_equal(result.scores, model.scores(int(seed)).scores)
