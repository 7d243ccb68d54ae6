"""Batched multi-seed diffusion: the block (n×B) form of Section IV.

The single-query algorithms diffuse one input vector ``f`` at a time;
serving many concurrent seed queries that way repeats the sparse
traversal ``B`` times.  Because the diffusion recurrence is linear in the
input, a column-stacked block ``F ∈ R^{n×B}`` can be driven through the
*same* iterations jointly: each iteration selects per-column batches
``Γ`` (Eq. 15 applied column-wise), converts the ``1-α`` fraction into
reserves and scatters the ``α`` fraction through **one** sparse mat-mat
``A (Γ / d)`` shared by every active column (Eq. 16).  Columns retire
independently the moment none of their residuals clears their own
threshold, so the block shrinks as queries converge and every column
ends with exactly the state its sequential counterpart would produce.

An iteration runs in one of two regimes: the saturated fast path, where
every residual of every live column clears its threshold and ``Γ = R``,
or the dense mat-mat over the masked ``Γ``.  There is no selective
(sparse-Γ) scatter: the router sends a block here only once its queries
saturate the graph, where a dense mat-mat is the cheaper product.

Three block engines mirror their vector originals one-for-one:

* :func:`batch_greedy_diffuse` — Algo 1 column-wise.
* :func:`batch_nongreedy_diffuse` — Eq. (17) column-wise.
* :func:`batch_adaptive_diffuse` — Algo 2 with per-column ratio /
  cost-budget bookkeeping, so each column flips between strategies on
  its own schedule while still sharing the mat-mat.

Per-column thresholds are supported (``epsilon`` may be a length-``B``
array), which is what LACA's Step 3 needs: column ``b`` diffuses with
threshold ``ε·‖φ′_b‖₁``.  Every column satisfies the same Eq. (14)
additive guarantee as the sequential engines.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..graphs.graph import AttributedGraph
from .base import DiffusionResult, note_kernel
from .push import push_diffuse

__all__ = [
    "BatchDiffusionResult",
    "validate_batch_inputs",
    "batch_greedy_diffuse",
    "batch_nongreedy_diffuse",
    "batch_adaptive_diffuse",
    "batch_diffuse",
]

#: Engines answering a block natively; "push" falls back to a column loop.
BLOCK_ENGINES = ("greedy", "nongreedy", "adaptive")


@dataclass
class BatchDiffusionResult:
    """Outcome of one block diffusion over ``B`` stacked input columns.

    Attributes
    ----------
    q:
        ``n × B`` reserve block; column ``b`` satisfies Eq. (14) for its
        input column and threshold.
    residual:
        ``n × B`` final residual block (all entries below threshold).
    iterations:
        Outer block iterations executed (= the slowest column's count).
    column_iterations / greedy_steps / nongreedy_steps:
        Per-column iteration bookkeeping, length ``B``.
    work:
        Per-column cost-model work (volume of the diffused supports).
    residual_history:
        Total ``‖R‖₁`` across columns after each block iteration.
    """

    q: np.ndarray
    residual: np.ndarray
    iterations: int
    column_iterations: np.ndarray
    greedy_steps: np.ndarray
    nongreedy_steps: np.ndarray
    work: np.ndarray
    residual_history: list[float] = field(default_factory=list)

    @property
    def n_columns(self) -> int:
        return self.q.shape[1]

    @property
    def support_sizes(self) -> np.ndarray:
        """Per-column count of nodes the diffusion touched."""
        return np.count_nonzero(self.q, axis=0)

    def column(self, b: int) -> DiffusionResult:
        """View column ``b`` as a sequential-style :class:`DiffusionResult`.

        ``q`` and ``residual`` are views into the block, not copies.
        """
        return DiffusionResult(
            q=self.q[:, b],
            residual=self.residual[:, b],
            iterations=int(self.column_iterations[b]),
            greedy_steps=int(self.greedy_steps[b]),
            nongreedy_steps=int(self.nongreedy_steps[b]),
            work=float(self.work[b]),
        )


def validate_batch_inputs(
    F: np.ndarray, n: int, alpha: float, epsilon
) -> tuple[np.ndarray, np.ndarray]:
    """Check and canonicalize block diffusion inputs.

    Returns the block as float64 ``n × B`` and the threshold as a
    length-``B`` array (a scalar ``epsilon`` is broadcast to all columns).
    """
    F = np.asarray(F, dtype=np.float64)
    if F.ndim != 2 or F.shape[0] != n:
        raise ValueError(f"input block has shape {F.shape}, expected (n={n}, B)")
    if np.any(F < 0):
        raise ValueError("diffusion input block must be non-negative")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"restart factor alpha must be in (0, 1), got {alpha}")
    eps = np.asarray(epsilon, dtype=np.float64)
    if eps.ndim == 0:
        eps = np.full(F.shape[1], float(eps))
    elif eps.shape != (F.shape[1],):
        raise ValueError(
            f"epsilon has shape {eps.shape}, expected a scalar or ({F.shape[1]},)"
        )
    if F.shape[1] and np.any(eps <= 0.0):
        raise ValueError("diffusion threshold epsilon must be positive")
    return F, eps


#: Retired columns ride along (masked) until fewer than this fraction of
#: the working block is still converging, then the block is compacted.
_COMPACT_LIMIT = 0.75


def _block_diffuse(
    graph: AttributedGraph,
    F: np.ndarray,
    alpha: float,
    epsilon,
    mode: str,
    sigma: float = 0.1,
    max_iterations: int = 1_000_000,
    track_history: bool = False,
) -> BatchDiffusionResult:
    """Shared kernel: one sparse mat-mat per iteration, per-column Γ picks.

    Every iteration the active columns each select a conversion batch
    ``γ_b`` — the above-threshold residuals (greedy), the whole residual
    (non-greedy), or whichever Algo 2's per-column test prefers
    (adaptive) — and the update ``Q += (1-α)Γ;  R ← R − Γ + α A (Γ/d)``
    runs once for the whole block.  Two regimes: a saturated fast path
    (``Γ = R``) when every residual of every column is above threshold,
    and the dense mat-mat ``A (Γ/d)`` otherwise.  Converged columns are
    masked out immediately and compacted away once they dominate.

    Only blocks whose queries saturate the graph are routed here
    (:func:`~repro.diffusion.base.block_diffusion_pays`), so there is no
    selective scatter: on the n = 8,000 arxiv analog a sparse-Γ SpGEMM
    was never faster than the dense mat-mat (README, Batched queries).  Both
    products add each output row's terms in ascending CSR order, as the
    sequential kernels do, so every column is bitwise its sequential run.
    """
    F, eps = validate_batch_inputs(F, graph.n, alpha, epsilon)
    if mode == "adaptive" and sigma < 0.0:
        raise ValueError(f"sigma must be non-negative, got {sigma}")
    n, n_cols = F.shape
    degrees = graph.degrees
    dcol = degrees[:, None]
    volume = float(degrees.sum())
    adjacency = graph.adjacency
    # Per-column counts of a boolean block as one BLAS product: a
    # strided axis-0 count_nonzero costs several times as much.
    ones = np.ones(n)

    out_q = np.zeros((n, n_cols))
    out_r = F.copy()
    column_iterations = np.zeros(n_cols, dtype=np.int64)
    greedy_steps = np.zeros(n_cols, dtype=np.int64)
    nongreedy_steps = np.zeros(n_cols, dtype=np.int64)
    work = np.zeros(n_cols)
    history: list[float] = []
    if mode == "adaptive":
        # Sum each column contiguously: numpy then adds it pairwise, as
        # ``f.sum()`` does in the sequential engine (an axis-0 reduction
        # of the C-ordered block adds it row by row instead, and a budget
        # one ulp off flips a one-shot decision).  F is validated
        # non-negative, so no abs.
        budgets = np.ascontiguousarray(F.T).sum(axis=1) / ((1.0 - alpha) * eps)
        c_tot = np.zeros(n_cols)

    # Working block: the still-active columns, compacted side by side.
    active = np.flatnonzero(F.any(axis=0))
    R = F[:, active].copy()
    Q = np.zeros_like(R)
    alive = np.ones(active.size, dtype=bool)
    T = dcol * eps[active][None, :]
    iterations = 0

    def _retire(done: np.ndarray) -> None:
        """Bank finished columns and mask them out of the working block."""
        nonlocal R, Q, T, active, alive
        cols = active[done]
        out_q[:, cols] = Q[:, done]
        out_r[:, cols] = R[:, done]
        alive &= ~done
        T[:, done] = np.inf
        if alive.any() and alive.mean() < _COMPACT_LIMIT:
            keep = alive
            active = active[keep]
            R = np.ascontiguousarray(R[:, keep])
            Q = np.ascontiguousarray(Q[:, keep])
            T = np.ascontiguousarray(T[:, keep])
            alive = np.ones(active.size, dtype=bool)

    while active.size:
        above = R >= T
        counts = ones @ above
        newly_done = (counts == 0) & alive
        if newly_done.any():
            _retire(newly_done)
            if not alive.any():
                break
            continue
        if iterations >= max_iterations:
            raise RuntimeError(
                f"block diffusion did not terminate within {max_iterations} iterations"
            )
        iterations += 1
        live_cols = active[alive]
        column_iterations[live_cols] += 1

        # Per-column batch selection (Eq. 15 column-wise).
        if mode == "greedy":
            sel = above
            greedy_steps[live_cols] += 1
        elif mode == "nongreedy":
            sel = (R != 0.0) & alive[None, :]
            nongreedy_steps[live_cols] += 1
        else:
            nonzero = R != 0.0
            nzcounts = ones @ nonzero
            vol_r = degrees @ nonzero
            ratio = counts / np.maximum(nzcounts, 1)
            one_shot = (ratio > sigma) & (c_tot[active] + vol_r < budgets[active])
            sel = above | (nonzero & one_shot[None, :])
            c_tot[active[one_shot]] += vol_r[one_shot]
            work[active[one_shot]] += vol_r[one_shot]
            nongreedy_steps[active[one_shot]] += 1
            greedy_steps[active[alive & ~one_shot]] += 1

        note_kernel("block_dense")
        if alive.all() and counts.min() == n and sel is above:
            # Every residual converts (the non-greedy regime): Γ = R.
            work[live_cols] += volume
            Q += (1.0 - alpha) * R
            scaled = R / dcol
            R = adjacency.dot(scaled)
            R *= alpha
        else:
            # R is finite and ≥ 0, so R·sel zeroes the unselected entries exactly.
            Gamma = R * sel
            # Per-column selected volume: the work this scatter does.
            sel_vol = degrees @ sel
            if mode != "adaptive":
                work[active] += sel_vol
            elif not one_shot.all():
                sel_g = alive & ~one_shot
                work[active[sel_g]] += sel_vol[sel_g]
            Q += (1.0 - alpha) * Gamma
            R -= Gamma
            Gamma /= dcol
            scatter = adjacency.dot(Gamma)
            scatter *= alpha
            R += scatter
        if track_history:
            history.append(float(np.abs(R[:, alive]).sum()))

    return BatchDiffusionResult(
        q=out_q,
        residual=out_r,
        iterations=iterations,
        column_iterations=column_iterations,
        greedy_steps=greedy_steps,
        nongreedy_steps=nongreedy_steps,
        work=work,
        residual_history=history,
    )


def batch_greedy_diffuse(
    graph: AttributedGraph,
    F: np.ndarray,
    alpha: float = 0.8,
    epsilon=1e-6,
    max_iterations: int = 1_000_000,
    track_history: bool = False,
) -> BatchDiffusionResult:
    """GreedyDiffuse (Algo 1) applied column-wise to the block ``F``.

    Column ``b`` of the result equals ``greedy_diffuse(graph, F[:, b],
    alpha, epsilon_b)``: the per-column batches replay the sequential
    schedule exactly, they merely share one sparse mat-mat per iteration.
    ``epsilon`` may be a scalar (shared) or a length-``B`` array.
    """
    return _block_diffuse(
        graph, F, alpha, epsilon, "greedy",
        max_iterations=max_iterations, track_history=track_history,
    )


def batch_nongreedy_diffuse(
    graph: AttributedGraph,
    F: np.ndarray,
    alpha: float = 0.8,
    epsilon=1e-6,
    max_iterations: int = 100_000,
    track_history: bool = False,
) -> BatchDiffusionResult:
    """Non-greedy one-shot diffusion (Eq. 17) applied column-wise."""
    return _block_diffuse(
        graph, F, alpha, epsilon, "nongreedy",
        max_iterations=max_iterations, track_history=track_history,
    )


def batch_adaptive_diffuse(
    graph: AttributedGraph,
    F: np.ndarray,
    alpha: float = 0.8,
    sigma: float = 0.1,
    epsilon=1e-6,
    max_iterations: int = 1_000_000,
    track_history: bool = False,
) -> BatchDiffusionResult:
    """AdaptiveDiffuse (Algo 2) applied column-wise to the block ``F``.

    Each column keeps its own cost accumulator and batch-coverage ratio,
    so it switches from one-shot to greedy conversions on the schedule
    the sequential algorithm would follow for that input alone.
    """
    return _block_diffuse(
        graph, F, alpha, epsilon, "adaptive", sigma=sigma,
        max_iterations=max_iterations, track_history=track_history,
    )


def batch_diffuse(
    graph: AttributedGraph,
    F: np.ndarray,
    alpha: float = 0.8,
    epsilon=1e-6,
    engine: str = "greedy",
    sigma: float = 0.1,
    max_iterations: int = 1_000_000,
) -> BatchDiffusionResult:
    """Dispatch a block diffusion to the named engine.

    ``"greedy"``, ``"nongreedy"`` and ``"adaptive"`` run natively on the
    block; ``"push"`` has no batched form (its queue is inherently
    sequential) and falls back to one :func:`push_diffuse` per column,
    repackaged in the block result type for a uniform API.
    """
    if engine in BLOCK_ENGINES:
        return _block_diffuse(
            graph, F, alpha, epsilon, engine, sigma=sigma,
            max_iterations=max_iterations,
        )
    if engine != "push":
        raise ValueError(f"unknown diffusion engine {engine!r}")
    F, eps = validate_batch_inputs(F, graph.n, alpha, epsilon)
    n_cols = F.shape[1]
    result = BatchDiffusionResult(
        q=np.zeros_like(F),
        residual=np.zeros_like(F),
        iterations=0,
        column_iterations=np.zeros(n_cols, dtype=np.int64),
        greedy_steps=np.zeros(n_cols, dtype=np.int64),
        nongreedy_steps=np.zeros(n_cols, dtype=np.int64),
        work=np.zeros(n_cols),
    )
    for b in range(n_cols):
        column = push_diffuse(graph, F[:, b], alpha=alpha, epsilon=float(eps[b]))
        result.q[:, b] = column.q
        result.residual[:, b] = column.residual
        result.column_iterations[b] = column.iterations
        result.greedy_steps[b] = column.greedy_steps
        result.work[b] = column.work
        result.iterations = max(result.iterations, column.iterations)
    return result
