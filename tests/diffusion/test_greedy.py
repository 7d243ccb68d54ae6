"""GreedyDiffuse-specific behaviour (Algo 1, Theorem IV.1)."""

import numpy as np
import pytest

from repro.core.config import LacaConfig
from repro.core.pipeline import LACA
from repro.diffusion import greedy_diffuse
from repro.diffusion.push import push_diffuse
from repro.graphs.generators import SBMConfig, attributed_sbm


def _one_hot(n, index):
    vector = np.zeros(n)
    vector[index] = 1.0
    return vector


class TestPaperExample:
    """The running example of Fig. 4 (α = 0.8, ε = 0.1)."""

    @pytest.fixture()
    def example_graph(self):
        from repro.graphs.graph import AttributedGraph

        # Fig. 4's 10-node graph: v1 has neighbors v2..v5; v2 has v1, v3,
        # v4; v5 connects onward to v6..; reconstructed to match the
        # degrees used in the walk-through: d(v1)=4, d(v2)=3, d(v3)=2,
        # d(v4)=2, d(v5)=5.
        edges = [
            (0, 1), (0, 2), (0, 3), (0, 4),   # v1 – v2..v5
            (1, 2), (1, 3),                   # v2 – v3, v4
            (4, 5), (4, 6), (4, 7), (4, 8),   # v5 – v6..v9
            (5, 9), (6, 9), (7, 8),           # periphery
        ]
        return AttributedGraph.from_edges(10, edges, name="fig4")

    def test_first_iteration_matches_paper(self, example_graph):
        """First batch converts (1-α)·0.4 and (1-α)·0.6 into reserves."""
        assert example_graph.degree(0) == 4.0
        assert example_graph.degree(1) == 3.0
        f = np.zeros(10)
        f[0], f[1] = 0.4, 0.6
        result = greedy_diffuse(example_graph, f, alpha=0.8, epsilon=0.1)
        # v1's reserve gets its initial conversion 0.2·0.4 = 0.08 (plus
        # possibly later conversions); it can never drop below that.
        assert result.q[0] >= 0.08 - 1e-12
        assert result.q[1] >= 0.12 - 1e-12

    def test_two_iterations_then_terminate(self, example_graph):
        f = np.zeros(10)
        f[0], f[1] = 0.4, 0.6
        result = greedy_diffuse(example_graph, f, alpha=0.8, epsilon=0.1)
        # The paper's walk-through terminates after 2 iterations with
        # v1-v2 residuals 0.352 / 0.272 — our graph differs slightly in
        # wiring, but termination must leave all residuals sub-threshold.
        assert (result.residual < 0.1 * example_graph.degrees).all()
        assert result.iterations <= 4


class TestBehaviour:
    def test_below_threshold_residuals_never_convert(self, small_sbm):
        """Nodes whose residual stays below ε·d never receive reserve."""
        epsilon = 5e-2
        f = _one_hot(small_sbm.n, 4)
        result = greedy_diffuse(small_sbm, f, alpha=0.8, epsilon=epsilon)
        # Reserve support must be a subset of nodes that ever crossed the
        # threshold; everything in q's support got (1-α)·(≥ ε·d) at least
        # once, so q_i ≥ (1-α)·ε·d_i on the support.
        support = result.support
        floor = (1.0 - 0.8) * epsilon * small_sbm.degrees[support]
        assert (result.q[support] >= floor - 1e-12).all()

    def test_work_bound_theorem_iv1(self, small_sbm):
        """Work ≤ ‖f‖₁ / ((1-α)ε) (Theorem IV.1's dominant term)."""
        alpha, epsilon = 0.8, 1e-4
        f = _one_hot(small_sbm.n, 0)
        result = greedy_diffuse(small_sbm, f, alpha=alpha, epsilon=epsilon)
        assert result.work <= 1.0 / ((1.0 - alpha) * epsilon) + small_sbm.n

    def test_agrees_with_push_on_converged_scores(self, small_sbm):
        """Greedy (batched) and push (node-at-a-time) both satisfy Eq. 14;
        at small ε their outputs nearly coincide."""
        f = _one_hot(small_sbm.n, 9)
        batched = greedy_diffuse(small_sbm, f, alpha=0.8, epsilon=1e-7)
        pushed = push_diffuse(small_sbm, f, alpha=0.8, epsilon=1e-7)
        assert np.abs(batched.q - pushed.q).max() < 1e-5

    def test_max_iterations_raises(self, medium_sbm):
        f = _one_hot(medium_sbm.n, 0)
        with pytest.raises(RuntimeError, match="did not terminate"):
            greedy_diffuse(medium_sbm, f, alpha=0.9, epsilon=1e-8, max_iterations=2)

    def test_larger_epsilon_less_work(self, small_sbm):
        f = _one_hot(small_sbm.n, 0)
        loose = greedy_diffuse(small_sbm, f, alpha=0.8, epsilon=1e-2)
        tight = greedy_diffuse(small_sbm, f, alpha=0.8, epsilon=1e-6)
        assert loose.work <= tight.work
        assert loose.support_size <= tight.support_size


def test_work_per_query_is_bounded_and_flat_in_n():
    """Theorem IV.1 by counts, with no ``+ n`` term: each diffusion's work
    stays under ``‖f‖₁ / ((1-α)·ε_f)`` — for Step 1 (one-hot input,
    threshold ε) and for Step 3 (input φ′, threshold ε·‖φ′‖₁) alike that is
    ``1 / ((1-α)ε)`` — and the median work per query at n = 80k does not
    exceed the median at n = 20k, on graphs whose communities, degrees
    and attributes look alike at both sizes."""
    alpha, epsilon = 0.8, 1e-5
    bound = (1.0 + 1e-9) / ((1.0 - alpha) * epsilon)
    medians = {}
    for n in (20_000, 80_000):
        graph = attributed_sbm(
            SBMConfig(n, n_communities=n // 200, avg_degree=14, mixing=0.15, d=32),
            seed=0,
        )
        config = LacaConfig(
            alpha=alpha, epsilon=epsilon, metric="cosine", diffusion="greedy"
        )
        model = LACA(config).fit(graph)
        works = []
        for seed in np.random.default_rng(0).choice(n, size=20, replace=False):
            result = model.scores(int(seed))
            assert result.rwr.work <= bound, (n, int(seed), result.rwr.work)
            assert result.bdd.work <= bound, (n, int(seed), result.bdd.work)
            works.append(result.rwr.work + result.bdd.work)
        medians[n] = float(np.median(works))
    assert medians[80_000] <= medians[20_000], medians
