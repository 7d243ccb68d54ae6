"""Batch-parity tests: every block engine column equals its sequential run.

The block engines are *schedules*, not approximations: column ``b`` of
``batch_*_diffuse(graph, F)`` must replay exactly the iterations that
``*_diffuse(graph, F[:, b])`` would perform, so outputs are compared
bitwise-close (tiny atol, zero rtol) and the per-column iteration
bookkeeping is compared exactly.
"""

import numpy as np
import pytest

from repro.diffusion import adaptive_diffuse, greedy_diffuse, nongreedy_diffuse
from repro.diffusion.base import DiffusionResult
from repro.diffusion.batch import (
    BatchDiffusionResult,
    batch_adaptive_diffuse,
    batch_diffuse,
    batch_greedy_diffuse,
    batch_nongreedy_diffuse,
    validate_batch_inputs,
)
from repro.diffusion.exact import exact_diffusion
from repro.diffusion.push import push_diffuse

ALPHA = 0.8
EPSILON = 1e-5

#: Bitwise-close: identical floating-point schedules up to accumulation
#: noise that is orders of magnitude below the Eq. (14) guarantee.
ATOL = 1e-15

PAIRS = {
    "greedy": (batch_greedy_diffuse, greedy_diffuse),
    "nongreedy": (batch_nongreedy_diffuse, nongreedy_diffuse),
}


def _block(graph, rng, n_cols=6):
    """Mixed block: one-hots, a random sparse column, a zero column, and
    a duplicate of column 0."""
    F = np.zeros((graph.n, n_cols))
    for b, node in enumerate([3, 17, 50, 3][: n_cols - 2]):
        F[node, b] = 1.0
    F[:, n_cols - 2] = rng.random(graph.n) * (rng.random(graph.n) < 0.25)
    # column n_cols-1 stays all-zero
    return F


@pytest.mark.parametrize("engine", list(PAIRS))
class TestColumnParity:
    def test_columns_match_sequential(self, small_sbm, engine, rng):
        batch_fn, seq_fn = PAIRS[engine]
        F = _block(small_sbm, rng)
        result = batch_fn(small_sbm, F, alpha=ALPHA, epsilon=EPSILON)
        for b in range(F.shape[1]):
            seq = seq_fn(small_sbm, F[:, b], alpha=ALPHA, epsilon=EPSILON)
            np.testing.assert_allclose(result.q[:, b], seq.q, rtol=0, atol=ATOL)
            np.testing.assert_allclose(
                result.residual[:, b], seq.residual, rtol=0, atol=ATOL
            )
            assert result.column_iterations[b] == seq.iterations
            assert np.isclose(result.work[b], seq.work)

    def test_single_column_block(self, small_sbm, engine):
        batch_fn, seq_fn = PAIRS[engine]
        f = np.zeros(small_sbm.n)
        f[11] = 1.0
        result = batch_fn(small_sbm, f[:, None], alpha=ALPHA, epsilon=EPSILON)
        seq = seq_fn(small_sbm, f, alpha=ALPHA, epsilon=EPSILON)
        assert result.n_columns == 1
        np.testing.assert_allclose(result.q[:, 0], seq.q, rtol=0, atol=ATOL)
        assert result.column_iterations[0] == seq.iterations

    def test_duplicate_columns_identical(self, small_sbm, engine, rng):
        batch_fn, _ = PAIRS[engine]
        F = _block(small_sbm, rng)
        result = batch_fn(small_sbm, F, alpha=ALPHA, epsilon=EPSILON)
        # columns 0 and 3 carry the same one-hot input
        np.testing.assert_array_equal(result.q[:, 0], result.q[:, 3])
        np.testing.assert_array_equal(result.residual[:, 0], result.residual[:, 3])

    def test_zero_column_stays_zero(self, small_sbm, engine, rng):
        batch_fn, _ = PAIRS[engine]
        F = _block(small_sbm, rng)
        result = batch_fn(small_sbm, F, alpha=ALPHA, epsilon=EPSILON)
        assert result.q[:, -1].sum() == 0.0
        assert result.column_iterations[-1] == 0

    def test_per_column_epsilon(self, small_sbm, engine):
        """A length-B epsilon applies column-wise."""
        batch_fn, seq_fn = PAIRS[engine]
        F = np.zeros((small_sbm.n, 2))
        F[5, 0] = 1.0
        F[5, 1] = 1.0
        epsilons = np.array([1e-3, 1e-6])
        result = batch_fn(small_sbm, F, alpha=ALPHA, epsilon=epsilons)
        for b, eps in enumerate(epsilons):
            seq = seq_fn(small_sbm, F[:, b], alpha=ALPHA, epsilon=float(eps))
            np.testing.assert_allclose(result.q[:, b], seq.q, rtol=0, atol=ATOL)
        # The loose column must converge in strictly fewer iterations.
        assert result.column_iterations[0] < result.column_iterations[1]


class TestAdaptiveParity:
    @pytest.mark.parametrize("sigma", [0.0, 0.1, 1.0])
    def test_columns_match_sequential(self, small_sbm, sigma, rng):
        F = _block(small_sbm, rng)
        result = batch_adaptive_diffuse(
            small_sbm, F, alpha=ALPHA, sigma=sigma, epsilon=EPSILON
        )
        for b in range(F.shape[1]):
            seq = adaptive_diffuse(
                small_sbm, F[:, b], alpha=ALPHA, sigma=sigma, epsilon=EPSILON
            )
            np.testing.assert_allclose(result.q[:, b], seq.q, rtol=0, atol=ATOL)
            assert result.column_iterations[b] == seq.iterations
            assert result.greedy_steps[b] == seq.greedy_steps
            assert result.nongreedy_steps[b] == seq.nongreedy_steps

    def test_rejects_negative_sigma(self, small_sbm):
        with pytest.raises(ValueError, match="sigma"):
            batch_adaptive_diffuse(
                small_sbm, np.ones((small_sbm.n, 2)), sigma=-0.5
            )


class TestGuarantees:
    """Every block column satisfies the sequential engines' invariants."""

    @pytest.mark.parametrize("engine", ["greedy", "nongreedy", "adaptive"])
    def test_eq14_against_exact_oracle(self, small_sbm, engine, rng):
        F = _block(small_sbm, rng)
        result = batch_diffuse(
            small_sbm, F, alpha=ALPHA, epsilon=EPSILON, engine=engine
        )
        for b in range(F.shape[1]):
            exact = exact_diffusion(small_sbm, F[:, b], ALPHA)
            error = exact - result.q[:, b]
            assert (error >= -1e-9).all()
            assert (error <= EPSILON * small_sbm.degrees + 1e-9).all()

    @pytest.mark.parametrize("engine", ["greedy", "nongreedy", "adaptive"])
    def test_mass_conservation_and_termination(self, small_sbm, engine, rng):
        F = _block(small_sbm, rng)
        result = batch_diffuse(
            small_sbm, F, alpha=ALPHA, epsilon=EPSILON, engine=engine
        )
        totals = result.q.sum(axis=0) + result.residual.sum(axis=0)
        np.testing.assert_allclose(totals, F.sum(axis=0), rtol=1e-9)
        thresholds = small_sbm.degrees[:, None] * EPSILON
        assert (result.residual < thresholds).all()
        assert (result.q >= 0.0).all()


class TestDispatcher:
    def test_push_fallback_matches_sequential(self, small_sbm, rng):
        F = _block(small_sbm, rng)
        result = batch_diffuse(
            small_sbm, F, alpha=ALPHA, epsilon=EPSILON, engine="push"
        )
        assert isinstance(result, BatchDiffusionResult)
        for b in range(F.shape[1]):
            seq = push_diffuse(small_sbm, F[:, b], alpha=ALPHA, epsilon=EPSILON)
            np.testing.assert_array_equal(result.q[:, b], seq.q)

    def test_unknown_engine_rejected(self, small_sbm):
        with pytest.raises(ValueError, match="unknown diffusion engine"):
            batch_diffuse(small_sbm, np.ones((small_sbm.n, 1)), engine="magic")

    def test_column_view_roundtrip(self, small_sbm, rng):
        F = _block(small_sbm, rng)
        result = batch_greedy_diffuse(small_sbm, F, alpha=ALPHA, epsilon=EPSILON)
        column = result.column(0)
        assert isinstance(column, DiffusionResult)
        np.testing.assert_array_equal(column.q, result.q[:, 0])
        assert column.iterations == result.column_iterations[0]
        # Views into the block, not copies.
        assert np.shares_memory(column.q, result.q)
        assert np.shares_memory(column.residual, result.residual)


class TestValidation:
    def test_empty_block(self, small_sbm):
        result = batch_greedy_diffuse(small_sbm, np.zeros((small_sbm.n, 0)))
        assert result.n_columns == 0
        assert result.iterations == 0

    def test_rejects_wrong_shape(self, small_sbm):
        with pytest.raises(ValueError, match="shape"):
            batch_greedy_diffuse(small_sbm, np.ones(small_sbm.n))
        with pytest.raises(ValueError, match="shape"):
            batch_greedy_diffuse(small_sbm, np.ones((3, 2)))

    def test_rejects_negative_entries(self, small_sbm):
        F = np.zeros((small_sbm.n, 2))
        F[0, 1] = -1.0
        with pytest.raises(ValueError, match="non-negative"):
            batch_greedy_diffuse(small_sbm, F)

    def test_rejects_bad_alpha(self, small_sbm):
        with pytest.raises(ValueError, match="alpha"):
            batch_greedy_diffuse(small_sbm, np.ones((small_sbm.n, 1)), alpha=1.5)

    def test_rejects_bad_epsilon(self, small_sbm):
        F = np.ones((small_sbm.n, 2))
        with pytest.raises(ValueError, match="epsilon"):
            batch_greedy_diffuse(small_sbm, F, epsilon=0.0)
        with pytest.raises(ValueError, match="positive"):
            batch_greedy_diffuse(small_sbm, F, epsilon=np.array([1e-5, 0.0]))
        with pytest.raises(ValueError, match="epsilon"):
            batch_greedy_diffuse(small_sbm, F, epsilon=np.array([1e-5, 1e-5, 1e-5]))

    def test_validate_broadcasts_scalar(self, small_sbm):
        F, eps = validate_batch_inputs(
            np.ones((small_sbm.n, 3)), small_sbm.n, 0.8, 1e-4
        )
        np.testing.assert_array_equal(eps, np.full(3, 1e-4))
