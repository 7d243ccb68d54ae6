"""TNAM construction (Algo 3): factorizing the SNAS into short vectors.

The transformed node attribute matrix ``Z ∈ R^{n×k'}`` satisfies
``s(vi, vj) ≈ z(i) · z(j)`` (Eq. 10), which decouples the BDD computation
(Section III-A).  The construction (Eq. 18) finds ``Y`` with
``f(vi, vj) ≈ y(i)·y(j)`` — via k-SVD for the cosine metric, via
orthogonal random features for the exponential cosine metric — and then
normalizes ``z(i) = y(i) / sqrt(y(i) · y*)`` where ``y* = Σ_ℓ y(ℓ)``.

For Table XI's alternative metrics (Jaccard / Pearson), no exact
inner-product factorization exists, so we factorize the dense kernel
itself with a truncated eigendecomposition — an O(n²) path only intended
for the small graphs that appendix evaluates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .orf import orf_feature_map
from .snas import kernel_matrix
from .svd import truncated_svd

__all__ = ["TNAM", "build_tnam"]

#: Guard for the normalization denominator y(i)·y*; see module docstring.
_EPS = 1e-12

#: Largest per-entry reconstruction error tolerated when projecting an
#: updated attribute row onto the retained k-SVD basis.  Rows inside the
#: basis span reconstruct to ~1e-15; a genuinely out-of-span row misses
#: by O(1), so anything past this means the basis no longer explains the
#: data and :meth:`TNAM.update_rows` falls back to a full rebuild.
_PROJECTION_TOL = 1e-6


@dataclass(frozen=True)
class TNAM:
    """Transformed node attribute matrix with its provenance.

    Attributes
    ----------
    z:
        ``n × k'`` matrix whose row dot-products approximate the SNAS.
        ``k' = k`` for the cosine metric and ``2k`` for exp-cosine (sin
        and cos feature halves).
    metric:
        Metric function name used for ``f``.
    k:
        Requested rank / feature budget.
    delta:
        Sensitivity factor of the exponential cosine metric.
    y:
        The pre-normalization feature matrix ``Y`` (``f(vi,vj) ≈
        y(i)·y(j)``), retained so :meth:`update_rows` can maintain the
        factorization incrementally.  ``None`` on states that predate
        incremental updates (they fall back to a full rebuild).
    basis:
        The k-SVD right factor ``Vᵀ`` (``k × d``) when the cosine metric
        went through the SVD; new/updated attribute rows are folded in
        by projecting onto this frozen basis.  ``None`` for the
        ``use_svd=False`` ablation (where ``Y`` *is* the attribute
        matrix) and for metrics whose features are not maintained
        incrementally.
    """

    z: np.ndarray
    metric: str
    k: int
    delta: float = 1.0
    y: np.ndarray | None = None
    basis: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.z.shape[0]

    def snas(self, i: int, j: int) -> float:
        """Approximate SNAS of one node pair: ``z(i) · z(j)`` (Eq. 10)."""
        return float(self.z[i] @ self.z[j])

    def snas_rows(self, support: np.ndarray) -> np.ndarray:
        """Rows ``z(i)`` for nodes in ``support`` (a view-like slice)."""
        return self.z[support]

    def dense_snas(self) -> np.ndarray:
        """Full approximate SNAS matrix ``Z Zᵀ`` — O(n²), tests only."""
        return self.z @ self.z.T

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------
    def update(
        self,
        delta,
        attributes: np.ndarray,
        *,
        use_svd: bool = True,
        rng: np.random.Generator | None = None,
    ) -> "TNAM":
        """Maintain the TNAM across a :class:`~repro.graphs.store.GraphDelta`.

        ``attributes`` is the *post-delta* attribute matrix (the new
        snapshot's, already row-normalized).  Structural-only deltas —
        edge insertions/deletions — return ``self`` unchanged: the TNAM
        depends on attributes alone, so no work is owed.  Deltas that
        rewrite or append attribute rows delegate to
        :meth:`update_rows`.
        """
        rows = delta.attribute_rows(self.n)
        if rows.size == 0:
            return self
        return self.update_rows(attributes, rows, use_svd=use_svd, rng=rng)

    def update_rows(
        self,
        attributes: np.ndarray,
        rows: np.ndarray,
        *,
        use_svd: bool = True,
        rng: np.random.Generator | None = None,
    ) -> "TNAM":
        """New TNAM after the attribute rows in ``rows`` changed/appeared.

        The cosine-metric factorizations are maintained incrementally:
        the touched rows' features are recomputed (for the k-SVD path by
        projecting onto the retained :attr:`basis`; for the
        ``use_svd=False`` ablation the attribute rows *are* the
        features) and Eq. (18)'s normalization is re-applied — ``O(n·k)``
        total, never another SVD.  The resulting Gram matrix ``Z Zᵀ``
        matches a from-scratch :func:`build_tnam` to ~1e-12 whenever the
        touched rows lie in the basis span (always, when ``k ≥ rank(X)``);
        rows that escape the span are detected via reconstruction error
        and trigger a full rebuild instead, as do metrics whose feature
        maps are not rotation-stable (``exp_cosine``'s random features,
        the dense-kernel factorizations).  The rebuild path reuses the
        deterministic default generator, so it is bitwise identical to
        refitting — ``update_rows`` is *never* less accurate than a
        refit, only cheaper when it can be.  For the cosine metric with
        a few hundred features or fewer, that rebuild is the Gram
        eigensolve of :func:`~repro.attributes.svd.truncated_svd`,
        ``O(n·d² + d³)``: about 0.3 s at ``n = 168k``, ``d = 128`` on one
        BLAS thread.  Real attribute rows usually take it — a row redrawn
        from another node is not in a rank-``k`` span of ``d > k``
        features.

        ``rows`` must cover every appended row when ``attributes`` has
        grown (the graph layer guarantees this for store deltas).
        """
        attributes = np.asarray(attributes, dtype=np.float64)
        rows = np.unique(np.asarray(rows, dtype=np.int64))
        n_old, n_new = self.n, attributes.shape[0]
        if n_new < n_old:
            raise ValueError(
                f"attribute matrix shrank from {n_old} to {n_new} rows; "
                "nodes are append-only"
            )
        if rows.size == 0 and n_new == n_old:
            return self
        if rows.size and (rows.min() < 0 or rows.max() >= n_new):
            raise ValueError(
                f"row index {int(rows.max())} out of range for n={n_new}"
            )
        if n_new > n_old and np.setdiff1d(
            np.arange(n_old, n_new, dtype=np.int64), rows
        ).size:
            raise ValueError(
                "rows must include every appended attribute row "
                f"({n_old}..{n_new - 1})"
            )

        def rebuild() -> "TNAM":
            return build_tnam(
                attributes,
                k=self.k,
                metric=self.metric,
                delta=self.delta,
                rng=rng or np.random.default_rng(0),
                use_svd=use_svd,
            )

        if self.metric != "cosine" or self.y is None:
            return rebuild()
        if self.basis is None:
            # use_svd=False ablation: Y is the attribute matrix itself.
            if self.y.shape[1] != attributes.shape[1]:
                return rebuild()  # legacy state without provenance
            y_rows = attributes[rows]
        else:
            projected = attributes[rows] @ self.basis.T
            residual = attributes[rows] - projected @ self.basis
            if residual.size and np.abs(residual).max() > _PROJECTION_TOL:
                return rebuild()
            y_rows = projected

        if n_new > n_old:
            y = np.empty((n_new, self.y.shape[1]))
            y[:n_old] = self.y
        else:
            y = self.y.copy()
        y[rows] = y_rows
        return TNAM(
            z=_normalize_features(y),
            metric=self.metric,
            k=self.k,
            delta=self.delta,
            y=y,
            basis=self.basis,
        )


def _normalize_features(y: np.ndarray) -> np.ndarray:
    """Eq. (18): ``z(i) = y(i) / sqrt(y(i) · y*)`` with ``y* = Σ y(ℓ)``.

    ``y(i)·y*`` estimates ``Σ_ℓ f(vi, vℓ) > 0``; approximation error can
    push individual values to ~0 or below, so they are clamped to a tiny
    positive floor (the affected rows carry negligible SNAS mass anyway).
    """
    y_star = y.sum(axis=0)
    denom = y @ y_star
    denom = np.maximum(denom, _EPS)
    return y / np.sqrt(denom)[:, None]


def build_tnam(
    attributes: np.ndarray,
    k: int = 32,
    metric: str = "cosine",
    delta: float = 1.0,
    rng: np.random.Generator | None = None,
    use_svd: bool = True,
) -> TNAM:
    """Algo 3: construct the TNAM ``Z`` from the attribute matrix ``X``.

    Parameters
    ----------
    attributes:
        ``n × d`` L2-normalized attribute matrix.
    k:
        Target dimension of the TNAM vectors (paper default 32).
    metric:
        ``"cosine"`` or ``"exp_cosine"`` for the paper's two SNAS
        instantiations, ``"jaccard"``/``"pearson"`` for the Table XI
        alternatives (dense kernel factorization; small graphs only).
    delta:
        Sensitivity of the exponential cosine metric (typically 1 or 2).
    use_svd:
        When False, skips the k-SVD dimension reduction and uses the raw
        attributes as ``Y``'s basis — the "w/o k-SVD" ablation of
        Table VI.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    attributes = np.asarray(attributes, dtype=np.float64)
    n, d = attributes.shape
    k = int(min(k, max(n, 1), max(d, 1))) if use_svd else k
    if k <= 0:
        raise ValueError("k must be positive")

    basis = None
    if metric == "cosine":
        if use_svd:
            u, sigma, vt = truncated_svd(attributes, k, rng=rng)
            y = u * sigma[None, :]
            basis = vt
        else:
            y = attributes.copy()
    elif metric == "exp_cosine":
        if use_svd:
            u, sigma, _ = truncated_svd(attributes, k, rng=rng)
            reduced = u * sigma[None, :]
        else:
            reduced = attributes
        y = orf_feature_map(reduced, n_features=k, delta=delta, rng=rng)
    elif metric in ("jaccard", "pearson"):
        y = _factorize_kernel(attributes, k, metric, delta)
    else:
        raise ValueError(f"unknown metric {metric!r}")

    z = _normalize_features(y)
    return TNAM(z=z, metric=metric, k=k, delta=delta, y=y, basis=basis)


def _factorize_kernel(
    attributes: np.ndarray, k: int, metric: str, delta: float
) -> np.ndarray:
    """PSD factorization ``K ≈ Y Yᵀ`` via truncated eigendecomposition.

    Used for metrics that are not inner products of any explicit feature
    map.  O(n²) — acceptable for the appendix's small-graph comparison.
    """
    kernel = kernel_matrix(attributes, metric=metric, delta=delta)
    eigenvalues, eigenvectors = np.linalg.eigh(kernel)
    order = np.argsort(eigenvalues)[::-1][:k]
    top_values = np.clip(eigenvalues[order], 0.0, None)
    return eigenvectors[:, order] * np.sqrt(top_values)[None, :]
