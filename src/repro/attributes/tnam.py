"""TNAM construction (Algo 3): factorizing the SNAS into short vectors.

The transformed node attribute matrix ``Z ∈ R^{n×k'}`` satisfies
``s(vi, vj) ≈ z(i) · z(j)`` (Eq. 10), which decouples the BDD computation
(Section III-A).  The construction (Eq. 18) finds ``Y`` with
``f(vi, vj) ≈ y(i)·y(j)`` — via k-SVD for the cosine metric, via
orthogonal random features for the exponential cosine metric — and then
normalizes ``z(i) = y(i) / sqrt(y(i) · y*)`` where ``y* = Σ_ℓ y(ℓ)``.

For the cosine metric with ``d ≤ min(n, 400)`` features, the k-SVD is an
eigensolve of the ``d × d`` Gram ``G = XᵀX``, and ``G`` is summed from
fixed row blocks ``X_bᵀX_b`` that the TNAM keeps (:class:`GramBlocks`).
Then ``V_k`` holds the top-``k`` eigenvectors, ``Y = X V_k`` and
``y* = (Σ_ℓ x(ℓ)) V_k``.  An attribute delta recomputes only the blocks
holding a changed row and reruns the same sum, eigensolve and
projection, so a refresh is bitwise a fresh build (:meth:`TNAM.update_rows`).
This path reads ``X`` as the graph's attribute row blocks
(:attr:`~repro.graphs.graph.AttributedGraph.attribute_blocks`) in place,
a Gram block being a whole number of them, and never forms the
contiguous ``n × d`` matrix; a plain matrix is cut into the same blocks.
A fit and a refresh spread the Gram partials and the projection with
its normalization over up to :func:`~repro.parallel.usable_cpus`
threads (each with :data:`~repro.parallel.MIN_HELPER_WORK` or more), one
contiguous run of blocks each, with OpenBLAS at one thread, so every
block's bytes come from the same kernel whichever thread computes it;
the blocks are summed, and ``eigh`` runs on the calling thread under the
same cap.  At ``n = 168k``, ``d = 128``, ``k = 32`` on a 2-CPU host, a
fresh build took 120–174 ms this way against 201–270 ms on one thread.

For Table XI's alternative metrics (Jaccard / Pearson), no exact
inner-product factorization exists, so we factorize the dense kernel
itself with a truncated eigendecomposition — an O(n²) path only intended
for the small graphs that appendix evaluates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..graphs.graph import ATTRIBUTE_BLOCK_ROWS, row_blocks
from ..parallel import map_on_cpus
from .orf import orf_feature_map
from .snas import kernel_matrix
from .svd import EXACT_THRESHOLD, truncated_svd

__all__ = ["GramBlocks", "TNAM", "build_tnam"]

#: Guard for the normalization denominator y(i)·y*; see module docstring.
_EPS = 1e-12

#: An attribute matrix: one ``n × d`` array, or its row blocks as
#: :func:`~repro.graphs.graph.row_blocks` cuts them (a tuple).
Attributes = np.ndarray | tuple[np.ndarray, ...]


def _block_rows(d: int, k: int) -> int:
    """Rows per Gram block, ``B = max(1024, ⌈d²/k⌉)`` rounded up to a
    whole number of attribute row blocks.

    ``n/B`` blocks of ``d²`` floats then take no more memory than the
    ``n × k`` feature matrix ``Y``.
    """
    rows = max(ATTRIBUTE_BLOCK_ROWS, -(-d * d // k))
    return -(-rows // ATTRIBUTE_BLOCK_ROWS) * ATTRIBUTE_BLOCK_ROWS


def _as_blocks(attributes: Attributes) -> tuple[np.ndarray, ...]:
    if isinstance(attributes, tuple):
        return attributes
    return row_blocks(np.asarray(attributes, dtype=np.float64))


def _as_matrix(attributes: Attributes) -> np.ndarray:
    if isinstance(attributes, tuple):
        return np.concatenate(attributes)
    return np.asarray(attributes, dtype=np.float64)


def _block_partials(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(X_bᵀX_b, Σ_i x_b(i))`` of one attribute row block."""
    return block.T @ block, block.sum(axis=0)


def _groups(blocks: tuple[np.ndarray, ...], rows: int) -> list:
    """The attribute row blocks of each ``rows``-row Gram block."""
    per = rows // ATTRIBUTE_BLOCK_ROWS
    return [blocks[lo : lo + per] for lo in range(0, len(blocks), per)]


def _group_partials(group) -> tuple[np.ndarray, np.ndarray]:
    """One Gram block's partials: its row blocks' partials summed in order."""
    gram, colsum = _block_partials(group[0])
    for block in group[1:]:
        g, s = _block_partials(block)
        gram += g
        colsum += s
    return gram, colsum


def _one_blas_thread():
    """:func:`~repro.core.blas.single_blas_thread`.  Under it each block's
    product runs the same one-thread kernel whichever thread computes
    it, and no OpenBLAS helper thread spins on the CPUs the blocks use."""
    from ..core.blas import single_blas_thread  # core imports this package

    return single_blas_thread()


def _gram_partials(groups: list) -> list:
    """:func:`_group_partials` of each group, on the CPUs."""
    d = groups[0][0].shape[1]
    rows = sum(block.shape[0] for group in groups for block in group)
    with _one_blas_thread():
        return map_on_cpus(_group_partials, groups, rows * d * d)


@dataclass(frozen=True)
class GramBlocks:
    """Row-block partials of the cosine k-SVD Gram ``G = XᵀX``.

    Block ``b`` covers rows ``[b·rows, (b+1)·rows)`` of ``X`` (the last
    one may be partial), a whole number of attribute row blocks, and
    holds ``X_bᵀX_b`` and the column sum of ``X_b``, each summed over its
    row blocks in order.  :meth:`totals` sums them in block order,
    whatever path produced the blocks, so equal attributes give bitwise
    equal totals.  ``build`` and ``updated`` take ``X`` as its attribute
    row blocks.
    """

    rows: int
    grams: tuple[np.ndarray, ...]
    colsums: tuple[np.ndarray, ...]

    @classmethod
    def build(cls, blocks: tuple[np.ndarray, ...], rows: int) -> "GramBlocks":
        parts = _gram_partials(_groups(blocks, rows))
        return cls(rows, tuple(g for g, _ in parts), tuple(s for _, s in parts))

    def updated(
        self, blocks: tuple[np.ndarray, ...], changed: np.ndarray
    ) -> "GramBlocks":
        """Gram blocks of ``X`` after the rows in ``changed`` were
        rewritten or appended; every other block keeps its arrays.

        ``changed`` must include every appended row.
        """
        groups = _groups(blocks, self.rows)
        grams = list(self.grams) + [None] * (len(groups) - len(self.grams))
        colsums = list(self.colsums) + [None] * (len(groups) - len(self.colsums))
        dirty = np.unique(changed // self.rows)
        parts = _gram_partials([groups[b] for b in dirty])
        for b, (gram, colsum) in zip(dirty, parts):
            grams[b], colsums[b] = gram, colsum
        return GramBlocks(self.rows, tuple(grams), tuple(colsums))

    def totals(self) -> tuple[np.ndarray, np.ndarray]:
        """``(G, Σ_ℓ x(ℓ))``: the block partials summed in block order."""
        gram, colsum = self.grams[0].copy(), self.colsums[0].copy()
        for g, s in zip(self.grams[1:], self.colsums[1:]):
            gram += g
            colsum += s
        return gram, colsum


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
    basis:
        The k-SVD right factor ``V_kᵀ`` (``k × d``) when the cosine
        metric went through the SVD; ``None`` for the ``use_svd=False``
        ablation, for other metrics and on reloaded models.
    blocks:
        The row-block Gram partials behind ``basis`` on the blocked
        cosine path (see the module docstring), which
        :meth:`update_rows` maintains; ``None`` elsewhere.  A cache
        derived from the attributes: it is not persisted, and a TNAM
        without it rebuilds it on its first attribute delta.
    """

    z: np.ndarray
    metric: str
    k: int
    delta: float = 1.0
    basis: np.ndarray | None = None
    blocks: GramBlocks | None = field(default=None, repr=False)

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
        attributes: Attributes,
        *,
        use_svd: bool = True,
        rng: np.random.Generator | None = None,
    ) -> "TNAM":
        """Maintain the TNAM across a :class:`~repro.graphs.store.GraphDelta`.

        ``attributes`` is the *post-delta* attribute matrix (the new
        snapshot's, already row-normalized), or its row blocks.
        Structural-only deltas — edge insertions/deletions — return
        ``self`` unchanged: the TNAM depends on attributes alone, so no
        work is owed.  Deltas that rewrite or append attribute rows
        delegate to :meth:`update_rows`.
        """
        rows = delta.attribute_rows(self.n)
        if rows.size == 0:
            return self
        return self.update_rows(attributes, rows, use_svd=use_svd, rng=rng)

    def update_rows(
        self,
        attributes: Attributes,
        rows: np.ndarray,
        *,
        use_svd: bool = True,
        rng: np.random.Generator | None = None,
    ) -> "TNAM":
        """New TNAM after the attribute rows in ``rows`` changed/appeared.

        The result is bitwise :func:`build_tnam` on ``attributes`` (same
        ``k``, metric and ``delta``) on every path.  On the blocked
        cosine path (``d ≤ min(n, 400)``) only the Gram blocks holding
        a row of ``rows`` are recomputed, ``O(|dirty blocks|·B·d²)``; the
        blocks are then summed in order and the ``d × d`` eigensolve and
        the ``Y = X V_k`` projection with Eq. (18)'s normalization run
        again, ``O(d³ + n·d·k)``: 55–73 ms at ``n = 168k``, ``d = 128``,
        ``k = 32`` for 8 rewritten rows on a 2-CPU host (both CPUs, one
        BLAS thread each), against 120–174 ms for a fresh build.
        Every other path is a fresh build: a TNAM without blocks (a
        reloaded one, or one that was not on the blocked path),
        ``exp_cosine``, the dense-kernel metrics, the randomized k-SVD
        past 400 features and ``use_svd=False`` (an ``O(n·d)``
        normalization).

        ``attributes`` is the new matrix or its row blocks (a tuple, as
        :attr:`~repro.graphs.graph.AttributedGraph.attribute_blocks`
        holds them); the blocked path reads the blocks in place.
        ``rows`` must cover every appended row when ``attributes`` has
        grown (the graph layer guarantees this for store deltas).
        """
        blocks = _as_blocks(attributes)
        rows = np.unique(np.asarray(rows, dtype=np.int64))
        n_old, n_new = self.n, sum(block.shape[0] for block in blocks)
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

        # Blocks exist only on the blocked path, and n only grows, so a
        # TNAM that has them stays on it.
        if self.blocks is None or not use_svd:
            return build_tnam(
                attributes,
                k=self.k,
                metric=self.metric,
                delta=self.delta,
                rng=rng or np.random.default_rng(0),
                use_svd=use_svd,
            )
        return _blocked_tnam(
            blocks, self.k, self.delta, self.blocks.updated(blocks, rows)
        )


def _normalize_features(y: np.ndarray, y_star: np.ndarray) -> np.ndarray:
    """Eq. (18) in place: ``z(i) = y(i) / sqrt(y(i) · y*)``.

    ``y(i)·y*`` estimates ``Σ_ℓ f(vi, vℓ) > 0``; approximation error can
    push individual values to ~0 or below, so they are clamped to a tiny
    positive floor (the affected rows carry negligible SNAS mass anyway).
    """
    denom = y @ y_star
    np.maximum(denom, _EPS, out=denom)
    y /= np.sqrt(denom, out=denom)[:, None]
    return y


def _blocked_tnam(
    x_blocks: tuple[np.ndarray, ...], k: int, delta: float, blocks: GramBlocks
) -> TNAM:
    """Cosine TNAM from the attribute row blocks and their Gram blocks.

    ``V_k`` is the top-``k`` eigenvectors of ``G``, ``Y = X V_k`` (the
    k-SVD's ``U Σ``) and ``y* = (Σ_ℓ x(ℓ)) V_k``.  Each row block is
    projected into its own rows of one ``n × k`` array and normalized
    there in place into ``Z``, the blocks spread over the CPUs.  The
    eigensolve runs on the calling thread under the same one-BLAS-thread
    cap: helper threads it woke would spin through the projection.
    """
    gram, colsum = blocks.totals()
    bounds = np.cumsum([0] + [block.shape[0] for block in x_blocks])
    z = np.empty((bounds[-1], k))
    with _one_blas_thread():
        _, eigenvectors = np.linalg.eigh(gram)
        v = eigenvectors[:, gram.shape[0] - 1 - np.arange(k)]  # eigh sorts ascending
        y_star = colsum @ v

        def project(b: int) -> None:
            rows = z[bounds[b] : bounds[b + 1]]
            _normalize_features(np.matmul(x_blocks[b], v, out=rows), y_star)

        map_on_cpus(project, range(len(x_blocks)), z.size * v.shape[0])
    return TNAM(z=z, metric="cosine", k=k, delta=delta, basis=v.T, blocks=blocks)


def build_tnam(
    attributes: Attributes,
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
        ``n × d`` L2-normalized attribute matrix, or its row blocks (a
        tuple, as :attr:`~repro.graphs.graph.AttributedGraph.attribute_blocks`
        holds them), which the blocked cosine path reads in place.
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
    x_blocks = _as_blocks(attributes)
    n, d = sum(block.shape[0] for block in x_blocks), x_blocks[0].shape[1]
    k = int(min(k, max(n, 1), max(d, 1))) if use_svd else k
    if k <= 0:
        raise ValueError("k must be positive")

    basis = None
    if metric == "cosine" and use_svd and d <= min(n, EXACT_THRESHOLD):
        # The exact d × d Gram eigensolve, on the row blocks in place.
        blocks = GramBlocks.build(x_blocks, _block_rows(d, k))
        return _blocked_tnam(x_blocks, k, delta, blocks)
    attributes = _as_matrix(attributes)
    if metric == "cosine":
        if not use_svd:
            y = attributes.copy()
        else:
            u, sigma, basis = truncated_svd(attributes, k, rng=rng)
            y = u * sigma[None, :]
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

    z = _normalize_features(y, y.sum(axis=0))
    return TNAM(z=z, metric=metric, k=k, delta=delta, basis=basis)


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
