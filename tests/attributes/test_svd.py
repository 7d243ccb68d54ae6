"""Tests for the truncated SVD (Algo 3's first step): randomized and Gram branches."""

import numpy as np
import scipy.sparse as sp
import pytest

from repro.attributes.svd import randomized_svd, truncated_svd


def _low_rank_matrix(rng, n=200, d=50, rank=5, noise=0.01):
    left = rng.normal(size=(n, rank))
    right = rng.normal(size=(rank, d))
    return left @ right + noise * rng.normal(size=(n, d))


class TestRandomizedSVD:
    def test_shapes(self, rng):
        matrix = _low_rank_matrix(rng)
        u, sigma, vt = randomized_svd(matrix, k=5, rng=rng)
        assert u.shape == (200, 5)
        assert sigma.shape == (5,)
        assert vt.shape == (5, 50)

    def test_orthonormal_columns(self, rng):
        matrix = _low_rank_matrix(rng)
        u, _, vt = randomized_svd(matrix, k=5, rng=rng)
        assert np.allclose(u.T @ u, np.eye(5), atol=1e-8)
        assert np.allclose(vt @ vt.T, np.eye(5), atol=1e-8)

    def test_reconstructs_low_rank(self, rng):
        matrix = _low_rank_matrix(rng, noise=0.0)
        u, sigma, vt = randomized_svd(matrix, k=5, rng=rng)
        reconstruction = (u * sigma) @ vt
        relative = np.linalg.norm(matrix - reconstruction) / np.linalg.norm(matrix)
        assert relative < 1e-8

    def test_matches_exact_singular_values(self, rng):
        matrix = _low_rank_matrix(rng, noise=0.05)
        _, sigma, _ = randomized_svd(matrix, k=5, rng=rng)
        exact = np.linalg.svd(matrix, compute_uv=False)[:5]
        assert np.allclose(sigma, exact, rtol=1e-3)

    def test_sparse_input(self, rng):
        matrix = sp.random(300, 80, density=0.05, random_state=1, format="csr")
        u, sigma, vt = randomized_svd(matrix, k=4, rng=rng)
        assert u.shape == (300, 4)
        assert (np.diff(sigma) <= 1e-12).all()  # non-increasing

    def test_k_larger_than_dims_clamped(self, rng):
        matrix = rng.normal(size=(10, 6))
        u, sigma, _ = randomized_svd(matrix, k=50, rng=rng)
        assert sigma.shape[0] == 6

    def test_invalid_k(self, rng):
        with pytest.raises(ValueError, match="positive"):
            randomized_svd(rng.normal(size=(5, 5)), k=0, rng=rng)


class TestTruncatedSVD:
    def test_exact_branch_for_small(self, rng):
        matrix = _low_rank_matrix(rng, n=50, d=20)
        u, sigma, vt = truncated_svd(matrix, k=5)
        exact = np.linalg.svd(matrix, compute_uv=False)[:5]
        assert np.allclose(sigma, exact)

    @pytest.mark.parametrize("n", [60, 500])
    def test_lemma_v1_gram_error_bound(self, rng, n):
        """‖(UΛ)(UΛ)ᵀ − XXᵀ‖₂ ≤ λ_{k+1}² (Lemma V.1), exact branch —
        also with n past the threshold, where the short side d keeps it exact."""
        matrix = _low_rank_matrix(rng, n=n, d=30, rank=8, noise=0.3)
        k = 4
        u, sigma, _ = truncated_svd(matrix, k=k)
        gram_approx = (u * sigma) @ (u * sigma).T
        gram = matrix @ matrix.T
        spectral_error = np.linalg.norm(gram - gram_approx, ord=2)
        all_sigma = np.linalg.svd(matrix, compute_uv=False)
        assert spectral_error <= all_sigma[k] ** 2 + 1e-8

    def test_randomized_branch_for_large(self, rng):
        matrix = _low_rank_matrix(rng, n=600, d=500, rank=6)
        u, sigma, _ = truncated_svd(matrix, k=6, exact_threshold=100, rng=rng)
        exact = np.linalg.svd(matrix, compute_uv=False)[:6]
        assert np.allclose(sigma, exact, rtol=1e-2)


class TestGramBranch:
    """The exact branch eigendecomposes the Gram matrix on the short side."""

    def test_tall_dense_matches_lapack(self, rng):
        matrix = _low_rank_matrix(rng, n=600, d=40, rank=10, noise=0.1)
        u, sigma, vt = truncated_svd(matrix, k=12)
        assert u.shape == (600, 12) and vt.shape == (12, 40)
        exact = np.linalg.svd(matrix, compute_uv=False)[:12]
        np.testing.assert_allclose(sigma, exact, rtol=1e-10)
        np.testing.assert_allclose(u.T @ u, np.eye(12), atol=1e-8)
        np.testing.assert_allclose(vt @ vt.T, np.eye(12), atol=1e-12)

    def test_sparse_matches_dense_copy(self, rng):
        matrix = sp.random(700, 60, density=0.05, random_state=3, format="csr")
        sparse_result = truncated_svd(matrix, k=8)
        dense_result = truncated_svd(matrix.toarray(), k=8)
        for got, want in zip(sparse_result, dense_result):
            np.testing.assert_array_equal(got, want)

    def test_wide_input(self, rng):
        matrix = _low_rank_matrix(rng, n=30, d=200, rank=6, noise=0.05)
        u, sigma, vt = truncated_svd(matrix, k=5)
        assert u.shape == (30, 5) and sigma.shape == (5,) and vt.shape == (5, 200)
        exact = np.linalg.svd(matrix, compute_uv=False)[:5]
        np.testing.assert_allclose(sigma, exact, rtol=1e-10)
        np.testing.assert_allclose(vt @ vt.T, np.eye(5), atol=1e-8)
        np.testing.assert_allclose((u * sigma) @ vt, matrix @ vt.T @ vt, atol=1e-10)

    def test_rank_deficient_k_beyond_rank(self, rng):
        matrix = _low_rank_matrix(rng, n=450, d=20, rank=3, noise=0.0)
        u, sigma, _ = truncated_svd(matrix, k=10)
        assert np.isfinite(u).all()
        assert (np.diff(sigma) <= 1e-12).all()
        factor = u * sigma
        np.testing.assert_allclose(
            factor @ factor.T, matrix @ matrix.T, atol=1e-8 * sigma[0] ** 2
        )

    def test_tall_branch_never_factorizes_the_full_matrix(self, rng, monkeypatch):
        """The tall branch pays O(n·d²) on the Gram, never an n×d SVD."""
        threshold = 400
        real_svd = np.linalg.svd

        def guarded(matrix, *args, **kwargs):
            if np.shape(matrix)[0] > threshold:
                raise AssertionError("truncated_svd factorized the n×d matrix")
            return real_svd(matrix, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", guarded)
        matrix = _low_rank_matrix(rng, n=2000, d=64, rank=10, noise=0.05)
        u, sigma, vt = truncated_svd(matrix, k=16, exact_threshold=threshold)
        assert u.shape == (2000, 16)
