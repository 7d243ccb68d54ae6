"""LACA (Algo 4): the three-step online BDD approximation.

Step 1 estimates the seed's RWR vector π′ by diffusing the one-hot seed
vector; Step 2 aggregates the TNAM rows of π′'s support into ψ (Eq. 12)
and builds the RWR-SNAS vector φ′ (Eq. 13); Step 3 diffuses φ′ with
threshold ``ε·‖φ′‖₁`` and divides by degrees, producing the approximate
BDD ρ′ whose accuracy Theorem V.4 bounds.  The predicted local cluster is
the top-``|Cs|`` nodes of ρ′.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..attributes.tnam import TNAM
from ..diffusion.base import DiffusionResult
from ..diffusion.batch import batch_diffuse
from ..diffusion.frontier import adaptive_diffuse, greedy_diffuse, nongreedy_diffuse
from ..diffusion.push import push_diffuse
from ..graphs.graph import AttributedGraph
from .blas import single_blas_thread
from .config import LacaConfig

__all__ = [
    "LacaResult",
    "laca_scores",
    "laca_scores_batch",
    "extract_cluster",
    "top_k_cluster",
]


@dataclass
class LacaResult:
    """Scores and diagnostics from one LACA run.

    ``scores`` is the approximate BDD vector ρ′ (non-negative, sparse in
    practice); diagnostics expose the per-step diffusion results for
    locality/efficiency analyses.
    """

    scores: np.ndarray
    seed: int
    rwr: DiffusionResult
    bdd: DiffusionResult
    psi: np.ndarray | None
    #: Sorted indices of the non-zero scores when the engines tracked
    #: their frontier (always, for the built-in engines); lets cluster
    #: extraction stay O(support) instead of O(n).
    scores_support: np.ndarray | None = None

    @property
    def support_size(self) -> int:
        if self.scores_support is not None:
            return int(self.scores_support.size)
        return int(np.count_nonzero(self.scores))

    def support_indices(self) -> np.ndarray:
        """Nodes the diffusion actually touched (the explored region)."""
        if self.scores_support is not None:
            return self.scores_support
        return np.flatnonzero(self.scores)

    def cluster(self, size: int) -> np.ndarray:
        """Top-``size`` nodes by BDD score (seed always included)."""
        return top_k_cluster(self.scores, size, self.seed, support=self.scores_support)


def _diffuse(
    graph: AttributedGraph,
    f: np.ndarray,
    config: LacaConfig,
    epsilon: float,
    f_support: np.ndarray,
) -> DiffusionResult:
    shared = {"alpha": config.alpha, "epsilon": epsilon, "f_support": f_support}
    if config.diffusion == "adaptive":
        return adaptive_diffuse(graph, f, sigma=config.sigma, **shared)
    if config.diffusion == "greedy":
        return greedy_diffuse(graph, f, **shared)
    if config.diffusion == "nongreedy":
        return nongreedy_diffuse(graph, f, **shared)
    if config.diffusion == "push":
        return push_diffuse(graph, f, **shared)
    raise ValueError(f"unknown diffusion engine {config.diffusion!r}")


def _snas_input(
    pi: np.ndarray,
    support: np.ndarray,
    degrees: np.ndarray,
    z: np.ndarray | None,
    phi: np.ndarray,
) -> tuple[np.ndarray | None, float]:
    """Step 2 of Algo 4 for one seed, the same on every path.

    ψ = Σ_{i∈supp(π′)} π′_i z(i) (Eq. 12), then φ′_i = max(ψ · z(i), 0) ·
    d(vi) on the same ``support`` (Eq. 13), written into ``phi`` — a
    contiguous length-``n`` vector that is zero off the support.  With
    ``z`` None (no SNAS) φ′_i = π′_i · d(vi).  Returns ``(ψ, ‖φ′‖₁)``,
    the mass summed over all of ``phi`` so that both paths add the same
    numbers in the same order.  The products run on one BLAS thread
    (see ``core/blas.py``).
    """
    # A graph-wide support is a plain slice: Z is read in place, not copied.
    rows = slice(None) if support.size == phi.shape[0] else support
    if z is None:
        phi[rows] = pi[rows] * degrees[rows]
        return None, float(phi.sum())
    z_rows = z[rows]
    with single_blas_thread():
        psi = pi[rows] @ z_rows
        phi[rows] = np.maximum(z_rows @ psi, 0.0) * degrees[rows]
    return psi, float(phi.sum())


def laca_scores(
    graph: AttributedGraph,
    seed: int,
    config: LacaConfig | None = None,
    tnam: TNAM | None = None,
) -> LacaResult:
    """Run Algo 4 and return the approximate BDD vector ρ′.

    ``tnam`` must be the preprocessing output of Algo 3 when
    ``config.use_snas`` is True on an attributed graph; the
    ``use_snas=False`` ablation (and non-attributed graphs) replace the
    SNAS by the identity, for which Eq. (9) collapses to
    ``φ_i = π′_i · d(vi)`` and no TNAM is needed.
    """
    config = config or LacaConfig()
    config.validate()
    if not 0 <= seed < graph.n:
        raise IndexError(f"seed {seed} out of range for n={graph.n}")
    use_snas = config.use_snas and graph.is_attributed
    if use_snas and tnam is None:
        raise ValueError(
            "laca_scores needs the TNAM from build_tnam() when use_snas=True; "
            "use LACA (the pipeline class) to manage preprocessing"
        )

    degrees = graph.degrees

    # Step 1: estimate the RWR vector π′ by diffusing the one-hot seed.
    seed_index = np.array([seed], dtype=np.int64)
    one_hot = np.zeros(graph.n)
    one_hot[seed] = 1.0
    rwr_result = _diffuse(graph, one_hot, config, config.epsilon, seed_index)
    pi = rwr_result.q
    if rwr_result.touched is not None:
        support = rwr_result.touched[pi[rwr_result.touched] != 0.0]
    else:
        support = np.flatnonzero(pi)

    # Step 2: ψ (Eq. 12) and φ′ (Eq. 13) on π′'s support.
    phi = np.zeros(graph.n)
    psi, phi_mass = _snas_input(pi, support, degrees, tnam.z if use_snas else None, phi)

    # Step 3: diffuse φ′ with threshold ε·‖φ′‖₁ and divide by degrees.
    if phi_mass <= 0.0:
        empty = DiffusionResult(
            q=np.zeros(graph.n), residual=np.zeros(graph.n), iterations=0,
            touched=np.empty(0, dtype=np.int64),
        )
        return LacaResult(scores=np.zeros(graph.n), seed=seed, rwr=rwr_result,
                          bdd=empty, psi=psi,
                          scores_support=np.empty(0, dtype=np.int64))
    bdd_result = _diffuse(graph, phi, config, config.epsilon * phi_mass, support)
    bdd_q = bdd_result.q
    if bdd_result.touched is not None:
        bdd_support = bdd_result.touched[bdd_q[bdd_result.touched] != 0.0]
    else:
        bdd_support = np.flatnonzero(bdd_q)
    scores = bdd_q.copy()
    scores[bdd_support] /= degrees[bdd_support]
    return LacaResult(
        scores=scores, seed=seed, rwr=rwr_result, bdd=bdd_result, psi=psi,
        scores_support=bdd_support,
    )


def _batch_diffuse_cfg(
    graph: AttributedGraph, F: np.ndarray, config: LacaConfig, epsilon
) -> list[DiffusionResult]:
    # The block engine's per-iteration volumes (``degrees @ sel``) are
    # dense float·bool products, so they reach BLAS as Step 2 does.
    with single_blas_thread():
        return batch_diffuse(
            graph,
            F,
            alpha=config.alpha,
            epsilon=epsilon,
            engine=config.diffusion,
            sigma=config.sigma,
        )


def laca_scores_batch(
    graph: AttributedGraph,
    seeds,
    config: LacaConfig | None = None,
    tnam: TNAM | None = None,
) -> list[LacaResult]:
    """Run Algo 4 for many seeds at once via block diffusion.

    Element ``b`` of the result answers ``seeds[b]``; its scores, and so
    its :meth:`LacaResult.cluster`, are bitwise ``laca_scores(graph,
    seeds[b])`` run with the same config.  Step 1 diffuses all one-hot
    seed columns as one ``n × B`` block; Step 2 runs per column, through
    the same Eqs. 12–13 code as :func:`laca_scores` on that column's own
    support; Step 3 block-diffuses Φ′ with per-column thresholds
    ``ε·‖φ′_b‖₁``.  The block diffusions replay each column's sequential
    schedule, so the columns agree bit for bit.  A zero-mass column (no
    positive SNAS mass on its support) has an all-zero input, never
    activates, and keeps all-zero scores, as :func:`laca_scores` returns.
    Duplicate seeds are answered independently (identical results); a
    ``"push"`` diffusion config degrades to a per-column loop because the
    queue-based engine has no block form.  The block engine tracks no
    frontier, so ``scores_support`` is None.
    """
    config = config or LacaConfig()
    config.validate()
    seeds = np.asarray(seeds, dtype=np.int64).reshape(-1)
    if seeds.size and not (0 <= seeds.min() and seeds.max() < graph.n):
        bad = seeds[(seeds < 0) | (seeds >= graph.n)][0]
        raise IndexError(f"seed {bad} out of range for n={graph.n}")
    use_snas = config.use_snas and graph.is_attributed
    if use_snas and tnam is None:
        raise ValueError(
            "laca_scores_batch needs the TNAM from build_tnam() when "
            "use_snas=True; use LACA (the pipeline class) to manage "
            "preprocessing"
        )
    n, n_queries = graph.n, seeds.shape[0]
    degrees = graph.degrees

    # Step 1 (block): estimate every RWR vector π′ in one diffusion of
    # the column-stacked one-hot seeds.
    F = np.zeros((n, n_queries))
    F[seeds, np.arange(n_queries)] = 1.0
    rwr_results = _batch_diffuse_cfg(graph, F, config, config.epsilon)

    # Step 2, column by column, through laca_scores' own code: π′_b and
    # φ′_b are contiguous rows, as in laca_scores.
    z = tnam.z if use_snas else None
    psis = []
    masses = np.zeros(n_queries)
    PhiT = np.zeros((n_queries, n))
    with single_blas_thread():
        for b, rwr in enumerate(rwr_results):
            pi = np.ascontiguousarray(rwr.q)
            psi, masses[b] = _snas_input(pi, np.flatnonzero(pi), degrees, z, PhiT[b])
            psis.append(psi)

    # Step 3 (block): diffuse Φ′ with per-column thresholds ε·‖φ′_b‖₁
    # and divide by degrees.  A zero-mass column gets any positive
    # threshold: its all-zero input never activates.
    thresholds = config.epsilon * np.where(masses > 0.0, masses, 1.0)
    bdd_results = _batch_diffuse_cfg(
        graph, np.ascontiguousarray(PhiT.T), config, thresholds
    )
    return [
        LacaResult(scores=bdd.q / degrees, seed=int(seed), rwr=rwr, bdd=bdd, psi=psi)
        for seed, rwr, bdd, psi in zip(seeds, rwr_results, bdd_results, psis)
    ]


def top_k_cluster(
    scores: np.ndarray,
    size: int,
    seed: int,
    support: np.ndarray | None = None,
) -> np.ndarray:
    """Top-``size`` nodes by score with the seed forced into the cluster.

    Ties and zero scores are broken deterministically by node index
    (lower index wins a tie) so experiments are reproducible.  When the
    seed is not among the top-``size`` nodes it is force-inserted and
    displaces the *lowest-ranked* retained node — the lowest-scoring
    one, breaking score ties by dropping the highest index.

    Selection runs in O(n) via a partition rather than a full
    O(n log n) sort; with ``support`` — a sorted index array covering
    every non-zero (non-negative) score, as tracked by the frontier
    engines — it drops to O(support + size), the per-query serving hot
    path, with no length-``n`` allocation.
    The result is identical either way (property-tested against a
    brute-force argsort reference).
    """
    if size <= 0:
        raise ValueError(f"cluster size must be positive, got {size}")
    n = scores.shape[0]
    size = min(size, n)
    if size == n:
        return np.arange(n)
    if support is not None and support.size < n:
        values = scores[support]
        kth = 0.0
        if support.size >= size:
            kth = values[
                np.argpartition(values, support.size - size)[support.size - size :]
            ].min()
        if kth > 0.0:
            # All retained nodes score above zero, hence live in the
            # support; the dense scan below would find exactly these.
            above = support[values > kth]
            tied = support[values == kth]
        else:
            # Fewer than ``size`` positive scores: keep them all and fill
            # the rest with the lowest-index zero-score nodes, which lie
            # in ``range(size)`` once the positive ones are skipped.
            above = support[values > 0.0]
            need = size - above.size
            tied = np.setdiff1d(np.arange(size), above, assume_unique=True)[:need]
    else:
        # size-th largest value; everything strictly above it is retained,
        # the remaining slots go to boundary ties in ascending-index order.
        kth = scores[np.argpartition(scores, n - size)[n - size :]].min()
        above = np.flatnonzero(scores > kth)
        tied = np.flatnonzero(scores == kth)
    if seed in above or seed in tied[: size - above.size]:
        cluster = np.concatenate([above, tied[: size - above.size]])
    else:
        # Force-insert the seed; drop the lowest-ranked retained node
        # (the last boundary tie, i.e. the highest-index lowest-scorer).
        cluster = np.concatenate([[seed], above, tied[: size - above.size - 1]])
    return np.sort(cluster)


def extract_cluster(
    graph: AttributedGraph,
    seed: int,
    size: int,
    config: LacaConfig | None = None,
    tnam: TNAM | None = None,
) -> np.ndarray:
    """Convenience: run LACA and return the top-``size`` cluster."""
    result = laca_scores(graph, seed, config=config, tnam=tnam)
    return result.cluster(size)
