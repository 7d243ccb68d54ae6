"""Non-greedy and push engine specifics."""

import numpy as np
import pytest

from repro.diffusion import nongreedy_diffuse
from repro.diffusion.push import push_diffuse


def _one_hot(n, index):
    vector = np.zeros(n)
    vector[index] = 1.0
    return vector


class TestNonGreedy:
    def test_geometric_residual_decay(self, small_sbm):
        """‖r‖₁ after t iterations is exactly αᵗ·‖f‖₁ (Eq. 17)."""
        alpha = 0.8
        f = _one_hot(small_sbm.n, 0)
        result = nongreedy_diffuse(
            small_sbm, f, alpha=alpha, epsilon=1e-6, track_history=True
        )
        for iteration, residual_sum in enumerate(result.residual_history, start=1):
            assert np.isclose(residual_sum, alpha**iteration, rtol=1e-9)

    def test_iteration_count_logarithmic(self, small_sbm):
        """Iterations ≈ log(ε·min-deg-normalized mass) / log(α)."""
        alpha = 0.8
        f = _one_hot(small_sbm.n, 0)
        loose = nongreedy_diffuse(small_sbm, f, alpha=alpha, epsilon=1e-2)
        tight = nongreedy_diffuse(small_sbm, f, alpha=alpha, epsilon=1e-6)
        assert loose.iterations < tight.iterations
        assert tight.iterations < 200

    def test_all_steps_counted_nongreedy(self, small_sbm):
        result = nongreedy_diffuse(small_sbm, _one_hot(small_sbm.n, 0), 0.8, 1e-4)
        assert result.nongreedy_steps == result.iterations
        assert result.greedy_steps == 0


class TestPush:
    def test_pushes_counted_as_iterations(self, small_sbm):
        result = push_diffuse(small_sbm, _one_hot(small_sbm.n, 0), 0.8, 1e-4)
        assert result.iterations > 0
        assert result.work > 0

    def test_local_support_for_loose_epsilon(self, medium_sbm):
        """With large ε the push never leaves the seed's neighborhood."""
        result = push_diffuse(medium_sbm, _one_hot(medium_sbm.n, 0), 0.8, 5e-2)
        assert result.support_size < medium_sbm.n / 4

    def test_push_budget_raises(self, medium_sbm):
        with pytest.raises(RuntimeError, match="push"):
            push_diffuse(
                medium_sbm, _one_hot(medium_sbm.n, 0), 0.9, 1e-7, max_pushes=10
            )

    def test_deterministic(self, small_sbm):
        f = _one_hot(small_sbm.n, 12)
        a = push_diffuse(small_sbm, f, 0.8, 1e-5)
        b = push_diffuse(small_sbm, f, 0.8, 1e-5)
        assert np.array_equal(a.q, b.q)
