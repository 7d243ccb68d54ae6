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
from ..diffusion.batch import BatchDiffusionResult, batch_diffuse
from ..diffusion.frontier import adaptive_diffuse, greedy_diffuse, nongreedy_diffuse
from ..diffusion.push import push_diffuse
from ..diffusion.workspace import DiffusionWorkspace
from ..graphs.graph import AttributedGraph
from .blas import single_blas_thread
from .config import LacaConfig

__all__ = [
    "LacaResult",
    "LacaBatchResult",
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
    workspace: DiffusionWorkspace | None = None,
    f_support: np.ndarray | None = None,
) -> DiffusionResult:
    shared = {"workspace": workspace, "f_support": f_support}
    if config.diffusion == "adaptive":
        return adaptive_diffuse(
            graph, f, alpha=config.alpha, sigma=config.sigma, epsilon=epsilon, **shared
        )
    if config.diffusion == "greedy":
        return greedy_diffuse(graph, f, alpha=config.alpha, epsilon=epsilon, **shared)
    if config.diffusion == "nongreedy":
        return nongreedy_diffuse(graph, f, alpha=config.alpha, epsilon=epsilon, **shared)
    if config.diffusion == "push":
        return push_diffuse(graph, f, alpha=config.alpha, epsilon=epsilon, **shared)
    raise ValueError(f"unknown diffusion engine {config.diffusion!r}")


def laca_scores(
    graph: AttributedGraph,
    seed: int,
    config: LacaConfig | None = None,
    tnam: TNAM | None = None,
    workspace: DiffusionWorkspace | None = None,
) -> LacaResult:
    """Run Algo 4 and return the approximate BDD vector ρ′.

    ``tnam`` must be the preprocessing output of Algo 3 when
    ``config.use_snas`` is True on an attributed graph; the
    ``use_snas=False`` ablation (and non-attributed graphs) replace the
    SNAS by the identity, for which Eq. (9) collapses to
    ``φ_i = π′_i · d(vi)`` and no TNAM is needed.

    With a :class:`~repro.diffusion.DiffusionWorkspace` the whole query
    runs on preallocated buffers — a steady-state query in the local
    regime performs zero length-``n`` allocations — and the returned
    arrays are views valid only until the workspace's next query.
    Results are bitwise identical either way.
    """
    config = config or LacaConfig()
    config.validate()
    if not 0 <= seed < graph.n:
        raise IndexError(f"seed {seed} out of range for n={graph.n}")
    use_snas = config.use_snas and graph.attributes is not None
    if use_snas and tnam is None:
        raise ValueError(
            "laca_scores needs the TNAM from build_tnam() when use_snas=True; "
            "use LACA (the pipeline class) to manage preprocessing"
        )

    degrees = graph.degrees

    # Step 1: estimate the RWR vector π′ by diffusing the one-hot seed.
    seed_index = np.array([seed], dtype=np.int64)
    if workspace is not None:
        workspace.begin()
        one_hot = workspace.input
        one_hot[seed] = 1.0
        workspace.note_input(seed_index)
    else:
        one_hot = np.zeros(graph.n)
        one_hot[seed] = 1.0
    rwr_result = _diffuse(
        graph, one_hot, config, config.epsilon, workspace, seed_index
    )
    pi = rwr_result.q
    if rwr_result.touched is not None:
        support = rwr_result.touched[pi[rwr_result.touched] != 0.0]
    else:
        support = np.flatnonzero(pi)

    # Step 2: ψ = Σ_{i∈supp(π′)} π′_i z(i) (Eq. 12), then
    # φ′_i = (ψ · z(i)) · d(vi) on the same support (Eq. 13).
    psi = None
    if workspace is not None:
        phi = workspace.input  # recycled in place: clear the seed staging
        phi[seed] = 0.0
        workspace.note_input(support)
    else:
        phi = np.zeros(graph.n)
    if use_snas:
        z_rows = tnam.z[support]
        with single_blas_thread():
            psi = pi[support] @ z_rows
            phi[support] = np.maximum(z_rows @ psi, 0.0) * degrees[support]
    else:
        phi[support] = pi[support] * degrees[support]

    # Step 3: diffuse φ′ with threshold ε·‖φ′‖₁ and divide by degrees.
    phi_mass = float(phi.sum())
    if phi_mass <= 0.0:
        if workspace is not None:
            slot = workspace.acquire()
            empty_q, empty_r, scores = slot.q, slot.r, workspace.scores
        else:
            empty_q, empty_r, scores = (
                np.zeros(graph.n), np.zeros(graph.n), np.zeros(graph.n),
            )
        empty = DiffusionResult(
            q=empty_q, residual=empty_r, iterations=0,
            touched=np.empty(0, dtype=np.int64),
        )
        return LacaResult(scores=scores, seed=seed, rwr=rwr_result,
                          bdd=empty, psi=psi,
                          scores_support=np.empty(0, dtype=np.int64))
    bdd_result = _diffuse(
        graph, phi, config, config.epsilon * phi_mass, workspace, support
    )
    bdd_q = bdd_result.q
    if bdd_result.touched is not None:
        bdd_support = bdd_result.touched[bdd_q[bdd_result.touched] != 0.0]
    else:
        bdd_support = np.flatnonzero(bdd_q)
    if workspace is not None:
        scores = workspace.scores
        scores[bdd_support] = bdd_q[bdd_support] / degrees[bdd_support]
        workspace.note_scores(bdd_support)
    else:
        scores = bdd_q.copy()
        scores[bdd_support] /= degrees[bdd_support]
    return LacaResult(
        scores=scores, seed=seed, rwr=rwr_result, bdd=bdd_result, psi=psi,
        scores_support=bdd_support,
    )


@dataclass
class LacaBatchResult:
    """Scores and diagnostics from one batched LACA run over ``B`` seeds.

    ``scores`` stacks the per-seed approximate BDD vectors ρ′ as columns;
    column ``b`` answers ``seeds[b]``.  Diagnostics expose the two block
    diffusions (``bdd`` is None when every column had zero SNAS mass).
    """

    scores: np.ndarray
    seeds: np.ndarray
    rwr: BatchDiffusionResult
    bdd: BatchDiffusionResult | None
    psi: np.ndarray | None

    @property
    def n_queries(self) -> int:
        return self.seeds.shape[0]

    def support_sizes(self) -> np.ndarray:
        """Per-query count of nodes the diffusion actually touched."""
        return np.count_nonzero(self.scores, axis=0)

    def column(self, b: int) -> np.ndarray:
        """The ρ′ vector of query ``b`` (a copy-free column view)."""
        return self.scores[:, b]

    def cluster(self, b: int, size: int) -> np.ndarray:
        """Top-``size`` nodes of query ``b`` (its seed always included)."""
        return top_k_cluster(self.scores[:, b], size, int(self.seeds[b]))


def _batch_diffuse_cfg(
    graph: AttributedGraph, F: np.ndarray, config: LacaConfig, epsilon
) -> BatchDiffusionResult:
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
) -> LacaBatchResult:
    """Run Algo 4 for many seeds at once via block diffusion.

    Column ``b`` of the result matches ``laca_scores(graph, seeds[b])``
    run with the same config — exactly on non-SNAS graphs, and up to
    floating-point accumulation order on the SNAS path, where Step 2's
    batched mat-mats sum over the block's union support instead of each
    column's own support slice (O(1e-16) relative noise; the diffusion
    schedules themselves are identical).  Step 1 diffuses all one-hot
    seed columns as one ``n × B`` block, Step 2 computes every ψ via one
    ``Π[U]ᵀ Z[U]`` mat-mat and every φ′ via one ``Z[U] Ψᵀ`` mat-mat over
    the union support ``U`` (Eqs. 12/13), and Step 3 block-diffuses Φ′
    with per-column thresholds ``ε·‖φ′_b‖₁``.
    Duplicate seeds are answered independently (identical columns); a
    ``"push"`` diffusion config degrades to a per-column loop because the
    queue-based engine has no block form.
    """
    config = config or LacaConfig()
    config.validate()
    seeds = np.asarray(seeds, dtype=np.int64).reshape(-1)
    if seeds.size and not (0 <= seeds.min() and seeds.max() < graph.n):
        bad = seeds[(seeds < 0) | (seeds >= graph.n)][0]
        raise IndexError(f"seed {bad} out of range for n={graph.n}")
    use_snas = config.use_snas and graph.attributes is not None
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
    rwr_result = _batch_diffuse_cfg(graph, F, config, config.epsilon)
    Pi = rwr_result.q

    # Step 2 (block): Ψ = Πᵀ Z (Eq. 12, one mat-mat for every column's
    # support sum) and Φ′ = relu(Z Ψᵀ) ⊙ d restricted to each column's
    # own support (Eq. 13).  The mat-mats and the per-column support
    # mask run on the *union support* of the block — the rows some
    # column actually reached — so Step 2 costs O(|U|·k·B), not
    # O(n·k·B), and the old dense n×B ``Phi[Pi == 0.0]`` mask is gone.
    # Both mat-mats run on one BLAS thread (see ``core/blas.py``).
    psi = None
    if use_snas:
        union = np.flatnonzero(Pi.any(axis=1))
        z_union = tnam.z[union]
        pi_union = Pi[union]
        with single_blas_thread():
            psi = pi_union.T @ z_union
            phi_union = np.maximum(z_union @ psi.T, 0.0) * degrees[union][:, None]
        phi_union[pi_union == 0.0] = 0.0
        masses = phi_union.sum(axis=0)
    else:
        Phi = Pi * degrees[:, None]
        masses = Phi.sum(axis=0)

    # Step 3 (block): diffuse the surviving Φ′ columns with per-column
    # thresholds ε·‖φ′_b‖₁ and divide by degrees.  Zero-mass columns
    # (no positive SNAS mass on the support) keep all-zero scores.
    live = np.flatnonzero(masses > 0.0)
    scores = np.zeros((n, n_queries))
    bdd_result = None
    if live.size:
        if use_snas:
            live_block = np.zeros((n, live.size))
            live_block[union] = phi_union[:, live]
        else:
            live_block = Phi[:, live]
        bdd_result = _batch_diffuse_cfg(
            graph, live_block, config, config.epsilon * masses[live]
        )
        if live.size < n_queries:
            bdd_result = _expand_columns(bdd_result, live, n_queries)
        scores = bdd_result.q / degrees[:, None]
    return LacaBatchResult(
        scores=scores, seeds=seeds, rwr=rwr_result, bdd=bdd_result, psi=psi
    )


def _expand_columns(
    result: BatchDiffusionResult, live: np.ndarray, n_queries: int
) -> BatchDiffusionResult:
    """Re-insert retired all-zero columns so diagnostics align with seeds."""
    n = result.q.shape[0]
    q = np.zeros((n, n_queries))
    residual = np.zeros((n, n_queries))
    column_iterations = np.zeros(n_queries, dtype=np.int64)
    greedy_steps = np.zeros(n_queries, dtype=np.int64)
    nongreedy_steps = np.zeros(n_queries, dtype=np.int64)
    work = np.zeros(n_queries)
    q[:, live] = result.q
    residual[:, live] = result.residual
    column_iterations[live] = result.column_iterations
    greedy_steps[live] = result.greedy_steps
    nongreedy_steps[live] = result.nongreedy_steps
    work[live] = result.work
    return BatchDiffusionResult(
        q=q,
        residual=residual,
        iterations=result.iterations,
        column_iterations=column_iterations,
        greedy_steps=greedy_steps,
        nongreedy_steps=nongreedy_steps,
        work=work,
        residual_history=result.residual_history,
    )


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
