"""Cross-algorithm invariant tests for all four diffusion engines.

Every engine must satisfy, for non-negative input ``f``:

* **Eq. (14)**: ``0 ≤ Σ_i f_i π(vi, vt) − q_t ≤ ε · d(vt)`` for all t.
* **Mass conservation**: ``‖q‖₁ + ‖r‖₁ = ‖f‖₁``.
* **Residual termination**: every final residual is below ``ε · d(vi)``.

These are checked directly against the exact linear-solve oracle, plus
property-based (hypothesis) versions over random graphs and inputs.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.diffusion import adaptive_diffuse, greedy_diffuse, nongreedy_diffuse
from repro.diffusion.exact import exact_diffusion
from repro.diffusion.push import push_diffuse
from repro.graphs.generators import SBMConfig, attributed_sbm

ENGINES = {
    "greedy": greedy_diffuse,
    "nongreedy": nongreedy_diffuse,
    "adaptive": adaptive_diffuse,
    "push": push_diffuse,
}


def _one_hot(n, index):
    vector = np.zeros(n)
    vector[index] = 1.0
    return vector


@pytest.mark.parametrize("engine", list(ENGINES))
class TestEquation14:
    @pytest.mark.parametrize("epsilon", [1e-3, 1e-5])
    @pytest.mark.parametrize("alpha", [0.5, 0.8])
    def test_one_hot_guarantee(self, small_sbm, engine, epsilon, alpha):
        f = _one_hot(small_sbm.n, 17)
        result = ENGINES[engine](small_sbm, f, alpha=alpha, epsilon=epsilon)
        exact = exact_diffusion(small_sbm, f, alpha)
        error = exact - result.q
        assert (error >= -1e-9).all(), "q must underestimate"
        assert (error <= epsilon * small_sbm.degrees + 1e-9).all()

    def test_general_vector_guarantee(self, small_sbm, engine, rng):
        f = rng.random(small_sbm.n) * (rng.random(small_sbm.n) < 0.3)
        epsilon = 1e-4
        result = ENGINES[engine](small_sbm, f, alpha=0.8, epsilon=epsilon)
        exact = exact_diffusion(small_sbm, f, 0.8)
        error = exact - result.q
        assert (error >= -1e-9).all()
        assert (error <= epsilon * small_sbm.degrees + 1e-9).all()


@pytest.mark.parametrize("engine", list(ENGINES))
class TestConservationAndTermination:
    def test_mass_conserved(self, small_sbm, engine, rng):
        f = rng.random(small_sbm.n)
        result = ENGINES[engine](small_sbm, f, alpha=0.8, epsilon=1e-4)
        total = result.q.sum() + result.residual.sum()
        assert np.isclose(total, f.sum(), rtol=1e-9)

    def test_final_residual_below_threshold(self, small_sbm, engine):
        epsilon = 1e-4
        f = _one_hot(small_sbm.n, 3)
        result = ENGINES[engine](small_sbm, f, alpha=0.8, epsilon=epsilon)
        assert (result.residual < epsilon * small_sbm.degrees).all()

    def test_output_non_negative(self, small_sbm, engine, rng):
        f = rng.random(small_sbm.n)
        result = ENGINES[engine](small_sbm, f, alpha=0.7, epsilon=1e-3)
        assert (result.q >= 0).all()
        assert (result.residual >= -1e-12).all()

    def test_zero_input_is_zero_output(self, small_sbm, engine):
        result = ENGINES[engine](small_sbm, np.zeros(small_sbm.n), 0.8, 1e-4)
        assert result.q.sum() == 0.0
        assert result.iterations == 0


@pytest.mark.parametrize("engine", list(ENGINES))
class TestValidation:
    def test_rejects_negative_input(self, small_sbm, engine):
        f = np.zeros(small_sbm.n)
        f[0] = -1.0
        with pytest.raises(ValueError, match="non-negative"):
            ENGINES[engine](small_sbm, f, alpha=0.8, epsilon=1e-4)

    def test_rejects_bad_alpha(self, small_sbm, engine):
        f = _one_hot(small_sbm.n, 0)
        with pytest.raises(ValueError, match="alpha"):
            ENGINES[engine](small_sbm, f, alpha=1.5, epsilon=1e-4)

    def test_rejects_bad_epsilon(self, small_sbm, engine):
        f = _one_hot(small_sbm.n, 0)
        with pytest.raises(ValueError, match="epsilon"):
            ENGINES[engine](small_sbm, f, alpha=0.8, epsilon=0.0)

    def test_rejects_wrong_shape(self, small_sbm, engine):
        with pytest.raises(ValueError, match="shape"):
            ENGINES[engine](small_sbm, np.ones(3), alpha=0.8, epsilon=1e-4)


@given(
    graph_seed=st.integers(min_value=0, max_value=50),
    node=st.integers(min_value=0, max_value=79),
    alpha=st.sampled_from([0.3, 0.6, 0.8, 0.9]),
    epsilon=st.sampled_from([1e-2, 1e-3, 1e-4]),
    engine=st.sampled_from(list(ENGINES)),
)
@settings(max_examples=40, deadline=None)
def test_property_eq14_over_random_graphs(graph_seed, node, alpha, epsilon, engine):
    """Eq. (14) holds on random SBMs for every engine and setting."""
    config = SBMConfig(n=80, n_communities=3, avg_degree=6.0, d=8)
    graph = attributed_sbm(config, seed=graph_seed)
    f = _one_hot(graph.n, node % graph.n)
    result = ENGINES[engine](graph, f, alpha=alpha, epsilon=epsilon)
    exact = exact_diffusion(graph, f, alpha)
    error = exact - result.q
    assert (error >= -1e-9).all()
    assert (error <= epsilon * graph.degrees + 1e-9).all()
    assert np.isclose(result.q.sum() + result.residual.sum(), 1.0)
