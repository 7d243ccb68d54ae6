"""Truncated SVD: a Gram eigensolve when one side is short, randomized otherwise.

Algo 3 of the paper opens with a ``k``-truncated SVD of the attribute
matrix ``X`` using the randomized technique of [34].  We implement the
standard randomized range finder with power iterations from scratch —
range sketch, QR orthonormalization, small dense SVD — so the whole
pipeline is self-contained and works for dense and scipy-sparse inputs.

When the short side of ``X`` is small (``min(n, d) ≤ 400``: attribute
matrices with a few hundred features, whatever ``n``), the top-``k``
triplets come exactly from the eigendecomposition of the Gram matrix on
that side instead: ``G = XᵀX`` (``d × d``) for tall inputs, then
``σ = sqrt(λ)``, ``V_k`` from the top eigenvectors and ``U = X V_k / σ``.
That costs ``O(n·d² + d³)`` and never materializes more than ``k``
columns of ``U``, where a thin LAPACK SVD builds all ``d`` of them: at
``n = 168k``, ``d = 128``, ``k = 32`` it took the TNAM build from ~6.8 s
to ~0.27 s on one BLAS thread of a 2-CPU host.  The cosine TNAM runs
the same eigensolve on a Gram it sums from row blocks it keeps
(:mod:`repro.attributes.tnam`); this branch serves the exp-cosine TNAM
and the embedding baselines.  Forming ``G`` squares the
condition number, so small singular values lose relative accuracy — but
the TNAM only ever consumes ``Y = U Σ = X V_k``, an exact projection of
``X`` onto ``span(V_k)`` whatever the rounding in ``V_k``, so ``Y Yᵀ``
misses the best rank-``k`` Gram by only about ``eps · σ₁²``.

Lemma V.1 of the paper bounds the spectral error of ``UΛ`` as a Gram
factor: ``‖(UΛ)(UΛ)ᵀ − XXᵀ‖₂ ≤ λ_{k+1}²``; tests verify the analogous
empirical behaviour.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

__all__ = ["EXACT_THRESHOLD", "randomized_svd", "truncated_svd"]

#: Largest short side ``min(n, d)`` that :func:`truncated_svd` solves exactly.
EXACT_THRESHOLD = 400


def _orthonormalize(matrix: np.ndarray) -> np.ndarray:
    q, _ = np.linalg.qr(matrix)
    return q


def randomized_svd(
    matrix,
    k: int,
    n_oversample: int = 8,
    n_power_iterations: int = 7,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Top-``k`` singular triplets of ``matrix`` via randomized sketching.

    Returns ``(U, sigma, Vt)`` with ``U: n×k``, ``sigma: k``, ``Vt: k×d``.
    ``n_power_iterations`` defaults to 7, the constant the paper cites for
    Lemma V.3's runtime analysis.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    n, d = matrix.shape
    k = int(min(k, n, d))
    if k <= 0:
        raise ValueError("k must be a positive integer")
    sketch_size = min(k + n_oversample, min(n, d))

    omega = rng.normal(size=(d, sketch_size))
    sample = matrix @ omega
    q = _orthonormalize(np.asarray(sample))
    for _ in range(n_power_iterations):
        q = _orthonormalize(np.asarray(matrix.T @ q))
        q = _orthonormalize(np.asarray(matrix @ q))

    small = np.asarray(q.T @ matrix)
    u_small, sigma, vt = np.linalg.svd(small, full_matrices=False)
    u = q @ u_small
    return u[:, :k], sigma[:k], vt[:k]


def _gram_svd(tall: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Top-``k`` SVD of a dense ``n × d`` matrix with ``d ≤ n`` via ``eigh(XᵀX)``.

    ``U`` columns whose singular value is exactly 0 (the eigenvalue
    clipped at 0: ``k`` beyond the rank) are left zero rather than
    divided by zero; ``U Σ = X V_k`` holds either way.
    """
    eigenvalues, eigenvectors = np.linalg.eigh(tall.T @ tall)
    top = eigenvalues.shape[0] - 1 - np.arange(k)  # eigh sorts ascending
    sigma = np.sqrt(np.clip(eigenvalues[top], 0.0, None))
    v = eigenvectors[:, top]
    u = tall @ v
    positive = sigma > 0.0
    np.divide(u, sigma, out=u, where=positive)
    u[:, ~positive] = 0.0
    return u, sigma, v.T


def truncated_svd(
    matrix,
    k: int,
    exact_threshold: int = EXACT_THRESHOLD,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Top-``k`` SVD: exact when ``min(n, d) ≤ exact_threshold``, else randomized.

    Returns ``(U, sigma, Vt)`` with ``U: n×k``, ``sigma: k`` non-increasing
    and ``Vt: k×d`` (``k`` clamped to ``min(n, d)``).  The exact branch
    eigendecomposes the Gram matrix on the short side (``XᵀX`` for tall
    inputs, ``XXᵀ`` — via the transpose — for wide ones) in
    ``O(n·d² + d³)`` for ``d ≤ n``; see the module docstring for why its
    precision suffices for the TNAM.  It is deterministic, so a rebuild
    is bitwise identical to a fresh fit.  The randomized branch is the
    paper's O(ndk) path (Lemma V.3).
    """
    n, d = matrix.shape
    if min(n, d) <= exact_threshold:
        dense = matrix.toarray() if sp.issparse(matrix) else np.asarray(matrix)
        k = int(min(k, n, d))
        if d <= n:
            return _gram_svd(dense, k)
        u, sigma, vt = _gram_svd(dense.T, k)
        return vt.T, sigma, u.T
    return randomized_svd(matrix, k, rng=rng)
