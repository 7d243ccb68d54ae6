"""Batch-parity tests: every block diffusion column equals its sequential run.

The block form is a *schedule*, not an approximation: element ``b`` of
``batch_diffuse(graph, F, engine=...)`` must replay exactly the
iterations that the sequential engine would perform on ``F[:, b]``, so
outputs are compared bitwise-close (tiny atol, zero rtol) and the
per-column iteration bookkeeping is compared exactly.
"""

import numpy as np
import pytest

from repro.diffusion import adaptive_diffuse, greedy_diffuse, nongreedy_diffuse
from repro.diffusion.base import (
    DiffusionResult,
    begin_kernel_tally,
    end_kernel_tally,
)
from repro.diffusion.batch import batch_diffuse, validate_batch_inputs
from repro.diffusion.exact import exact_diffusion
from repro.diffusion.push import push_diffuse
from repro.graphs.datasets import load_dataset

ALPHA = 0.8
EPSILON = 1e-5

#: Bitwise-close: identical floating-point schedules up to accumulation
#: noise that is orders of magnitude below the Eq. (14) guarantee.
ATOL = 1e-15

SEQUENTIAL = {
    "greedy": greedy_diffuse,
    "nongreedy": nongreedy_diffuse,
    "adaptive": adaptive_diffuse,
}

#: Engines the block loop answers natively ("push" runs per column).
BLOCK_ENGINES = tuple(SEQUENTIAL)


def _block(graph, rng, n_cols=6):
    """Mixed block: one-hots, a random sparse column, a zero column, and
    a duplicate of column 0."""
    F = np.zeros((graph.n, n_cols))
    for b, node in enumerate([3, 17, 50, 3][: n_cols - 2]):
        F[node, b] = 1.0
    F[:, n_cols - 2] = rng.random(graph.n) * (rng.random(graph.n) < 0.25)
    # column n_cols-1 stays all-zero
    return F


@pytest.mark.parametrize("engine", ["greedy", "nongreedy"])
class TestColumnParity:
    def test_columns_match_sequential(self, small_sbm, engine, rng):
        F = _block(small_sbm, rng)
        result = batch_diffuse(small_sbm, F, alpha=ALPHA, epsilon=EPSILON, engine=engine)
        for b, column in enumerate(result):
            seq = SEQUENTIAL[engine](small_sbm, F[:, b], alpha=ALPHA, epsilon=EPSILON)
            np.testing.assert_allclose(column.q, seq.q, rtol=0, atol=ATOL)
            np.testing.assert_allclose(column.residual, seq.residual, rtol=0, atol=ATOL)
            assert column.iterations == seq.iterations
            assert np.isclose(column.work, seq.work)

    def test_single_column_block(self, small_sbm, engine):
        f = np.zeros(small_sbm.n)
        f[11] = 1.0
        result = batch_diffuse(
            small_sbm, f[:, None], alpha=ALPHA, epsilon=EPSILON, engine=engine
        )
        seq = SEQUENTIAL[engine](small_sbm, f, alpha=ALPHA, epsilon=EPSILON)
        assert len(result) == 1
        np.testing.assert_allclose(result[0].q, seq.q, rtol=0, atol=ATOL)
        assert result[0].iterations == seq.iterations

    def test_duplicate_columns_identical(self, small_sbm, engine, rng):
        F = _block(small_sbm, rng)
        result = batch_diffuse(small_sbm, F, alpha=ALPHA, epsilon=EPSILON, engine=engine)
        # columns 0 and 3 carry the same one-hot input
        np.testing.assert_array_equal(result[0].q, result[3].q)
        np.testing.assert_array_equal(result[0].residual, result[3].residual)

    def test_zero_column_stays_zero(self, small_sbm, engine, rng):
        F = _block(small_sbm, rng)
        result = batch_diffuse(small_sbm, F, alpha=ALPHA, epsilon=EPSILON, engine=engine)
        assert result[-1].q.sum() == 0.0
        assert result[-1].iterations == 0

    def test_per_column_epsilon(self, small_sbm, engine):
        """A length-B epsilon applies column-wise."""
        F = np.zeros((small_sbm.n, 2))
        F[5, 0] = 1.0
        F[5, 1] = 1.0
        epsilons = np.array([1e-3, 1e-6])
        result = batch_diffuse(small_sbm, F, alpha=ALPHA, epsilon=epsilons, engine=engine)
        for b, eps in enumerate(epsilons):
            seq = SEQUENTIAL[engine](small_sbm, F[:, b], alpha=ALPHA, epsilon=float(eps))
            np.testing.assert_allclose(result[b].q, seq.q, rtol=0, atol=ATOL)
        # The loose column must converge in strictly fewer iterations.
        assert result[0].iterations < result[1].iterations


class TestAdaptiveParity:
    @pytest.mark.parametrize("sigma", [0.0, 0.1, 1.0])
    def test_columns_match_sequential(self, small_sbm, sigma, rng):
        F = _block(small_sbm, rng)
        result = batch_diffuse(
            small_sbm, F, alpha=ALPHA, sigma=sigma, epsilon=EPSILON, engine="adaptive"
        )
        for b, column in enumerate(result):
            seq = adaptive_diffuse(
                small_sbm, F[:, b], alpha=ALPHA, sigma=sigma, epsilon=EPSILON
            )
            np.testing.assert_allclose(column.q, seq.q, rtol=0, atol=ATOL)
            assert column.iterations == seq.iterations
            assert column.greedy_steps == seq.greedy_steps
            assert column.nongreedy_steps == seq.nongreedy_steps

    def test_rejects_negative_sigma(self, small_sbm):
        with pytest.raises(ValueError, match="sigma"):
            batch_diffuse(
                small_sbm, np.ones((small_sbm.n, 2)), sigma=-0.5, engine="adaptive"
            )


def _straddling_epsilon(graph, f, alpha, max_steps=256):
    """An ε whose budget ``‖f‖₁ / ((1-α)ε)`` sits on one side of
    ``vol(supp f)`` — the first one-shot volume — when ``‖f‖₁`` is summed
    pairwise (``f.sum()``, as the sequential engine does) and on the
    other when it is summed row by row (an axis-0 reduction of a
    C-ordered block); ``None`` if no such ε lies within ``max_steps``
    ulps of ``f.sum() / ((1-α) vol(supp f))``."""
    volume = float(graph.degrees[np.flatnonzero(f)].sum())
    pairwise = float(f.sum())
    row_by_row = float(np.cumsum(f)[-1])
    start = pairwise / ((1.0 - alpha) * volume)
    for toward in (np.inf, 0.0):
        eps = start
        for _ in range(max_steps):
            pair_shot = volume < pairwise / ((1.0 - alpha) * eps)
            row_shot = volume < row_by_row / ((1.0 - alpha) * eps)
            if pair_shot != row_shot:
                return eps
            eps = np.nextafter(eps, toward)
    return None


def test_adaptive_budget_sums_each_column_pairwise():
    """A column whose one-shot decision hinges on the last ulp of its
    budget still replays ``adaptive_diffuse`` bitwise: the block engine
    sums ``‖f‖₁`` the way the sequential engine does."""
    graph = load_dataset("arxiv", scale=0.12)
    rng = np.random.default_rng(5)
    F = rng.random((graph.n, 3)) * (rng.random((graph.n, 3)) < 0.5) * 1e-3
    F[rng.integers(graph.n, size=3), [0, 1, 2]] = 1.0  # spikes clear the threshold
    epsilons = [_straddling_epsilon(graph, F[:, b], ALPHA) for b in range(3)]
    assert None not in epsilons

    result = batch_diffuse(
        graph, F, alpha=ALPHA, sigma=0.0, epsilon=np.array(epsilons), engine="adaptive"
    )
    for b, eps in enumerate(epsilons):
        seq = adaptive_diffuse(graph, F[:, b], alpha=ALPHA, sigma=0.0, epsilon=eps)
        np.testing.assert_array_equal(result[b].q, seq.q)
        np.testing.assert_array_equal(result[b].residual, seq.residual)
        assert result[b].iterations == seq.iterations
        assert result[b].greedy_steps == seq.greedy_steps
        assert result[b].nongreedy_steps == seq.nongreedy_steps


def _tallied(call):
    """Run ``call()`` under a fresh kernel tally; return result and tally."""
    begin_kernel_tally()
    try:
        result = call()
    finally:
        tally = end_kernel_tally()
    return result, tally


@pytest.mark.parametrize("engine", BLOCK_ENGINES)
def test_local_iterations_scatter_through_the_dense_mat_mat(engine):
    """One-hot columns on the arxiv analog (n = 800) start local: the
    sequential engines' volume switch picks a selective kernel for some
    of their iterations, i.e. those select at most 1/16 of a full
    mat-vec's cost.  The block engine still scatters every iteration
    through the dense mat-mat, and every column is bitwise its
    sequential run."""
    graph = load_dataset("arxiv", scale=0.1)
    F = np.zeros((graph.n, 4))
    for b, node in enumerate((0, 7, 130, 611)):
        F[node, b] = 1.0
    result, tally = _tallied(
        lambda: batch_diffuse(graph, F, alpha=ALPHA, epsilon=1e-6, engine=engine)
    )
    assert set(tally) == {"block_dense"}, tally
    # The slowest column is live in every block iteration.
    assert tally["block_dense"] == max(column.iterations for column in result)

    local = 0
    for b in range(F.shape[1]):
        seq, seq_tally = _tallied(
            lambda: SEQUENTIAL[engine](graph, F[:, b], alpha=ALPHA, epsilon=1e-6)
        )
        local += seq_tally.get("gather", 0) + seq_tally.get("csc", 0)
        np.testing.assert_array_equal(result[b].q, seq.q)
        np.testing.assert_array_equal(result[b].residual, seq.residual)
        assert result[b].iterations == seq.iterations
        assert result[b].greedy_steps == seq.greedy_steps
        assert result[b].nongreedy_steps == seq.nongreedy_steps
    assert local > 0


class TestGuarantees:
    """Every block column satisfies the sequential engines' invariants."""

    @pytest.mark.parametrize("engine", ["greedy", "nongreedy", "adaptive"])
    def test_eq14_against_exact_oracle(self, small_sbm, engine, rng):
        F = _block(small_sbm, rng)
        result = batch_diffuse(
            small_sbm, F, alpha=ALPHA, epsilon=EPSILON, engine=engine
        )
        for b, column in enumerate(result):
            exact = exact_diffusion(small_sbm, F[:, b], ALPHA)
            error = exact - column.q
            assert (error >= -1e-9).all()
            assert (error <= EPSILON * small_sbm.degrees + 1e-9).all()

    @pytest.mark.parametrize("engine", ["greedy", "nongreedy", "adaptive"])
    def test_mass_conservation_and_termination(self, small_sbm, engine, rng):
        F = _block(small_sbm, rng)
        result = batch_diffuse(
            small_sbm, F, alpha=ALPHA, epsilon=EPSILON, engine=engine
        )
        totals = [column.q.sum() + column.residual.sum() for column in result]
        np.testing.assert_allclose(totals, F.sum(axis=0), rtol=1e-9)
        thresholds = small_sbm.degrees * EPSILON
        for column in result:
            assert (column.residual < thresholds).all()
            assert (column.q >= 0.0).all()


class TestDispatcher:
    def test_push_fallback_matches_sequential(self, small_sbm, rng):
        F = _block(small_sbm, rng)
        result = batch_diffuse(
            small_sbm, F, alpha=ALPHA, epsilon=EPSILON, engine="push"
        )
        assert len(result) == F.shape[1]
        for b, column in enumerate(result):
            seq = push_diffuse(small_sbm, F[:, b], alpha=ALPHA, epsilon=EPSILON)
            np.testing.assert_array_equal(column.q, seq.q)
            np.testing.assert_array_equal(column.residual, seq.residual)
            assert column.iterations == seq.iterations

    def test_unknown_engine_rejected(self, small_sbm):
        with pytest.raises(ValueError, match="unknown diffusion engine"):
            batch_diffuse(small_sbm, np.ones((small_sbm.n, 1)), engine="magic")

    def test_column_view_roundtrip(self, small_sbm, rng):
        """Each element is a DiffusionResult over views of the engine's
        n × B blocks, with no frontier tracked."""
        F = _block(small_sbm, rng)
        result = batch_diffuse(small_sbm, F, alpha=ALPHA, epsilon=EPSILON)
        assert len(result) == F.shape[1]
        for column in result:
            assert isinstance(column, DiffusionResult)
            assert column.touched is None and column.frontier_peak == 0
            # Column views into the blocks, not copies.
            assert column.q.base is result[0].q.base is not None
            assert column.residual.base is result[0].residual.base is not None
            assert column.q.base.shape == (small_sbm.n, F.shape[1])


class TestValidation:
    def test_empty_block(self, small_sbm):
        begin_kernel_tally()
        try:
            result = batch_diffuse(small_sbm, np.zeros((small_sbm.n, 0)))
        finally:
            tally = end_kernel_tally()
        assert result == []
        assert tally == {}  # no block iteration ran

    def test_rejects_wrong_shape(self, small_sbm):
        with pytest.raises(ValueError, match="shape"):
            batch_diffuse(small_sbm, np.ones(small_sbm.n))
        with pytest.raises(ValueError, match="shape"):
            batch_diffuse(small_sbm, np.ones((3, 2)))

    def test_rejects_negative_entries(self, small_sbm):
        F = np.zeros((small_sbm.n, 2))
        F[0, 1] = -1.0
        with pytest.raises(ValueError, match="non-negative"):
            batch_diffuse(small_sbm, F)

    def test_rejects_bad_alpha(self, small_sbm):
        with pytest.raises(ValueError, match="alpha"):
            batch_diffuse(small_sbm, np.ones((small_sbm.n, 1)), alpha=1.5)

    def test_rejects_bad_epsilon(self, small_sbm):
        F = np.ones((small_sbm.n, 2))
        with pytest.raises(ValueError, match="epsilon"):
            batch_diffuse(small_sbm, F, epsilon=0.0)
        with pytest.raises(ValueError, match="positive"):
            batch_diffuse(small_sbm, F, epsilon=np.array([1e-5, 0.0]))
        with pytest.raises(ValueError, match="epsilon"):
            batch_diffuse(small_sbm, F, epsilon=np.array([1e-5, 1e-5, 1e-5]))

    @pytest.mark.parametrize("engine", [*BLOCK_ENGINES, "push"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, small_sbm, engine, bad):
        """A NaN entry would spread through the shared mat-mat to nodes
        its sequential run never reaches; an inf would never converge."""
        F = np.zeros((small_sbm.n, 2))
        F[3, 0] = F[7, 1] = 1.0
        F[40, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            batch_diffuse(small_sbm, F, alpha=ALPHA, epsilon=1e-4, engine=engine)

    @pytest.mark.parametrize("engine", [*BLOCK_ENGINES, "push"])
    def test_rejects_nan_epsilon(self, small_sbm, engine):
        F = np.ones((small_sbm.n, 2))
        with pytest.raises(ValueError, match="epsilon"):
            batch_diffuse(small_sbm, F, epsilon=np.nan, engine=engine)
        with pytest.raises(ValueError, match="epsilon"):
            batch_diffuse(small_sbm, F, epsilon=np.array([1e-5, np.nan]), engine=engine)

    def test_validate_broadcasts_scalar(self, small_sbm):
        F, eps = validate_batch_inputs(
            np.ones((small_sbm.n, 3)), small_sbm.n, 0.8, 1e-4
        )
        np.testing.assert_array_equal(eps, np.full(3, 1e-4))
