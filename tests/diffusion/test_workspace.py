"""DiffusionWorkspace: buffer recycling, reuse parity, allocation behavior.

The workspace's contract is that reuse is *invisible*: any sequence of
queries through one workspace yields bitwise the results of fresh-buffer
runs, because ``begin()`` restores every buffer to its pristine state in
O(touched).  These tests drive mixed engine/input/epsilon sequences
through a single workspace and hold it to that contract, plus the
zero-length-``n``-allocation claim for steady-state local queries.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.config import LacaConfig
from repro.core.laca import laca_scores
from repro.core.pipeline import LACA
from repro.diffusion import adaptive_diffuse, greedy_diffuse, nongreedy_diffuse
from repro.diffusion.push import push_diffuse
from repro.diffusion.workspace import DiffusionWorkspace, sorted_union
from repro.graphs.generators import SBMConfig, attributed_sbm

ENGINES = {
    "greedy": greedy_diffuse,
    "nongreedy": nongreedy_diffuse,
    "adaptive": adaptive_diffuse,
    "push": push_diffuse,
}


@pytest.fixture(scope="module")
def graph():
    return attributed_sbm(
        SBMConfig(n=150, n_communities=3, avg_degree=8.0, d=8),
        seed=1,
        name="ws-graph",
    )


def _one_hot(n, i):
    f = np.zeros(n)
    f[i] = 1.0
    return f


class TestReuseParity:
    @pytest.mark.parametrize("engine", list(ENGINES))
    def test_consecutive_queries_match_fresh_runs(self, graph, engine):
        """Two consecutive queries through one workspace match
        fresh-allocation results bitwise (the satellite requirement)."""
        fn = ENGINES[engine]
        ws = DiffusionWorkspace(graph)
        for seed in (3, 77):
            fresh = fn(graph, _one_hot(graph.n, seed), 0.8, 1e-4)
            ws.begin()
            reused = fn(graph, _one_hot(graph.n, seed), 0.8, 1e-4, workspace=ws)
            assert np.array_equal(reused.q, fresh.q)
            assert np.array_equal(reused.residual, fresh.residual)

    def test_mixed_engine_epsilon_sequence(self, graph):
        """Interleaving engines and thresholds cannot leak state."""
        ws = DiffusionWorkspace(graph)
        sequence = [
            ("greedy", 5, 1e-3),
            ("adaptive", 9, 1e-5),
            ("push", 5, 1e-3),
            ("nongreedy", 120, 1e-4),
            ("greedy", 5, 1e-5),
        ]
        for engine, seed, epsilon in sequence:
            fn = ENGINES[engine]
            fresh = fn(graph, _one_hot(graph.n, seed), 0.8, epsilon)
            ws.begin()
            reused = fn(graph, _one_hot(graph.n, seed), 0.8, epsilon, workspace=ws)
            assert np.array_equal(reused.q, fresh.q), (engine, seed, epsilon)
            assert np.array_equal(reused.residual, fresh.residual)

    def test_laca_scores_reuse_matches_fresh(self, graph):
        config = LacaConfig(metric="cosine", k=8, diffusion="adaptive", epsilon=1e-4)
        model = LACA(config).fit(graph)
        ws = model.make_workspace()
        for seed in (0, 42, 0, 99):
            fresh = laca_scores(graph, seed, config=config, tnam=model.tnam)
            reused = laca_scores(
                graph, seed, config=config, tnam=model.tnam, workspace=ws
            )
            assert np.array_equal(fresh.scores, reused.scores)
            assert np.array_equal(fresh.cluster(12), reused.cluster(12))

    def test_pipeline_cluster_with_workspace(self, graph):
        model = LACA(LacaConfig(metric="cosine", k=8, epsilon=1e-4)).fit(graph)
        ws = model.make_workspace()
        for seed in (1, 2, 3):
            plain = model.cluster(seed, 10)
            reused = model.cluster(seed, 10, workspace=ws)
            np.testing.assert_array_equal(plain, reused)
            # clusters are fresh arrays, never workspace views
            assert reused.base is None or reused.base is not ws.scores


class TestBufferHygiene:
    def test_begin_restores_pristine_buffers(self, graph):
        ws = DiffusionWorkspace(graph)
        ws.begin()
        greedy_diffuse(graph, _one_hot(graph.n, 3), 0.8, 1e-5, workspace=ws)
        ws.begin()
        for slot in ws._slots:
            assert not slot.q.any()
            assert not slot.r.any()
            assert not slot.seen.any()
        assert not ws.input.any()
        assert not ws.scores.any()
        assert not ws.in_queue.any()
        assert not ws.staging.any()

    def test_laca_query_then_begin_is_clean(self, graph):
        config = LacaConfig(metric="cosine", k=8, epsilon=1e-4)
        model = LACA(config).fit(graph)
        ws = model.make_workspace()
        laca_scores(graph, 7, config=config, tnam=model.tnam, workspace=ws)
        ws.begin()
        for slot in ws._slots:
            assert not slot.q.any() and not slot.r.any() and not slot.seen.any()
        assert not ws.input.any() and not ws.scores.any()

    def test_third_acquire_raises(self, graph):
        ws = DiffusionWorkspace(graph)
        ws.begin()
        greedy_diffuse(graph, _one_hot(graph.n, 1), 0.8, 1e-3, workspace=ws)
        greedy_diffuse(graph, _one_hot(graph.n, 2), 0.8, 1e-3, workspace=ws)
        with pytest.raises(RuntimeError, match="exhausted"):
            greedy_diffuse(graph, _one_hot(graph.n, 3), 0.8, 1e-3, workspace=ws)

    def test_push_failure_leaves_flags_clean(self, graph):
        ws = DiffusionWorkspace(graph)
        ws.begin()
        with pytest.raises(RuntimeError, match="exceeded"):
            push_diffuse(
                graph, _one_hot(graph.n, 0), 0.8, 1e-7, max_pushes=3, workspace=ws
            )
        assert not ws.in_queue.any()


@pytest.fixture(scope="module")
def big_graph():
    return attributed_sbm(
        SBMConfig(n=40_000, n_communities=10, avg_degree=6.0, d=8),
        seed=3,
        name="ws-big",
    )


class TestZeroAllocationHotPath:
    @pytest.mark.parametrize(
        "engine, seed",
        [("greedy", 13), ("adaptive", 12), ("adaptive", 13)],
    )
    def test_local_query_allocates_no_length_n_arrays(self, big_graph, engine, seed):
        """A steady-state query in the local regime must not allocate any
        length-``n`` array, not even a transient one, with the greedy or
        the adaptive engine.  Adaptive seed 13 ends with an empty Step 3
        support, so it also covers top-k's fill with zero-score nodes."""
        config = LacaConfig(metric="cosine", k=8, diffusion=engine, epsilon=1e-3)
        model = LACA(config).fit(big_graph)
        ws = model.make_workspace()
        model.cluster(11, 8, workspace=ws)  # warm: caches and pools settled
        result = laca_scores(
            big_graph, seed, config=config, tnam=model.tnam, workspace=ws
        )
        # ε=1e-3 bounds the touched volume at 5000 ≪ n/8: every scatter
        # stays on the zero-allocation unique route.
        assert 8 < result.rwr.touched.size < big_graph.n // 8
        if (engine, seed) == ("adaptive", 13):
            assert result.scores_support.size < 8
        else:
            assert 8 < result.scores_support.size < big_graph.n // 8
        threshold = big_graph.n * 8 // 2  # half a float64 length-n buffer
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            model.cluster(seed, 8, workspace=ws)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < threshold, (
            f"hot path peaked at {peak} traced bytes, a length-n-scale allocation"
        )


class TestSortedUnion:
    def test_matches_union1d(self, rng):
        for _ in range(20):
            a = np.unique(rng.integers(0, 50, size=rng.integers(0, 30)))
            b = np.unique(rng.integers(0, 50, size=rng.integers(0, 30)))
            np.testing.assert_array_equal(sorted_union(a, b), np.union1d(a, b))

    def test_empty_inputs(self):
        empty = np.empty(0, dtype=np.int64)
        assert sorted_union(empty, empty).size == 0
        np.testing.assert_array_equal(
            sorted_union(empty, np.array([3, 5])), np.array([3, 5])
        )
