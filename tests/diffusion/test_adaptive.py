"""AdaptiveDiffuse-specific behaviour (Algo 2, Lemma IV.3)."""

import numpy as np
import pytest

from repro.diffusion import adaptive_diffuse, greedy_diffuse
from repro.graphs.generators import SBMConfig, attributed_sbm


def _one_hot(n, index):
    vector = np.zeros(n)
    vector[index] = 1.0
    return vector


class TestStrategyMix:
    def test_sigma_zero_prefers_nongreedy(self, small_sbm):
        result = adaptive_diffuse(
            small_sbm, _one_hot(small_sbm.n, 0), alpha=0.8, sigma=0.0, epsilon=1e-5
        )
        assert result.nongreedy_steps > 0

    @pytest.mark.parametrize("avg_degree", [4.0, 28.0])
    @pytest.mark.parametrize("epsilon", [1e-3, 1e-5])
    @pytest.mark.parametrize("sigma", [1.0, np.inf])
    def test_sigma_one_plus_is_pure_greedy(self, avg_degree, epsilon, sigma):
        """σ ≥ 1 is GreedyDiffuse bit for bit (Lemma IV.3's β = 1 case),
        over the frontier-parity grid of densities, thresholds and inputs."""
        graph = attributed_sbm(
            SBMConfig(n=120, n_communities=3, avg_degree=avg_degree, d=8),
            seed=0,
            name=f"lemma-deg{avg_degree:g}",
        )
        rng = np.random.default_rng(0)
        inputs = {
            "one_hot": _one_hot(graph.n, 3),
            "sparse": rng.random(graph.n) * (rng.random(graph.n) < 0.3),
            "dense": rng.random(graph.n),
        }
        for name, f in inputs.items():
            adaptive = adaptive_diffuse(graph, f, alpha=0.8, sigma=sigma, epsilon=epsilon)
            greedy = greedy_diffuse(graph, f, alpha=0.8, epsilon=epsilon)
            assert adaptive.nongreedy_steps == 0, name
            assert np.array_equal(adaptive.q, greedy.q), name
            assert np.array_equal(adaptive.residual, greedy.residual), name
            assert adaptive.iterations == greedy.iterations, name
            assert adaptive.greedy_steps == greedy.greedy_steps, name
            assert adaptive.work == greedy.work, name

    def test_counts_sum(self, small_sbm):
        result = adaptive_diffuse(
            small_sbm, _one_hot(small_sbm.n, 1), alpha=0.8, sigma=0.3, epsilon=1e-5
        )
        assert result.greedy_steps + result.nongreedy_steps == result.iterations


class TestLemmaIV3:
    @pytest.mark.parametrize("sigma", [0.0, 0.1, 0.5, 1.0])
    def test_volume_bound(self, small_sbm, sigma):
        """vol(q) ≤ β·‖f‖₁ / ((1-α)ε) with β ≤ 2 (β ≤ 1 for σ ≥ 1)."""
        alpha, epsilon = 0.8, 1e-3
        f = _one_hot(small_sbm.n, 2)
        result = adaptive_diffuse(
            small_sbm, f, alpha=alpha, sigma=sigma, epsilon=epsilon
        )
        beta = 1.0 if sigma >= 1.0 else 2.0
        bound = beta * 1.0 / ((1.0 - alpha) * epsilon)
        volume = small_sbm.vector_volume(result.q)
        assert volume <= bound + 1e-9
        assert result.support_size <= volume

    def test_nongreedy_cost_stays_under_budget(self, small_sbm):
        """Ctot (non-greedy work) never exceeds ‖f‖₁ / ((1-α)ε)."""
        alpha, epsilon = 0.8, 1e-4
        f = _one_hot(small_sbm.n, 0)
        result = adaptive_diffuse(
            small_sbm, f, alpha=alpha, sigma=0.0, epsilon=epsilon
        )
        budget = 1.0 / ((1.0 - alpha) * epsilon)
        # Total work (greedy + non-greedy) is within twice the budget.
        assert result.work <= 2.0 * budget


class TestParameters:
    def test_rejects_negative_sigma(self, small_sbm):
        with pytest.raises(ValueError, match="sigma"):
            adaptive_diffuse(
                small_sbm, _one_hot(small_sbm.n, 0), sigma=-0.1, epsilon=1e-4
            )

    def test_history_tracking(self, small_sbm):
        result = adaptive_diffuse(
            small_sbm,
            _one_hot(small_sbm.n, 0),
            epsilon=1e-4,
            track_history=True,
        )
        assert len(result.residual_history) == result.iterations
        # Residual ultimately decays below its starting mass.
        assert result.residual_history[-1] < 1.0

    def test_faster_than_greedy_on_iterations(self, medium_sbm):
        """The headline: adaptive terminates in no more iterations than
        greedy at equal ε (usually far fewer)."""
        f = _one_hot(medium_sbm.n, 3)
        greedy = greedy_diffuse(medium_sbm, f, alpha=0.9, epsilon=1e-5)
        adaptive = adaptive_diffuse(
            medium_sbm, f, alpha=0.9, sigma=0.1, epsilon=1e-5
        )
        assert adaptive.iterations <= greedy.iterations
