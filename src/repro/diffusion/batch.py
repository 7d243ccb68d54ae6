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

The block form is an execution strategy, not another algorithm, so it
has one entry point, :func:`batch_diffuse`, which returns one
:class:`~repro.diffusion.base.DiffusionResult` per input column.  Its
``engine`` names the sequential original each column replays:
``"greedy"`` (Algo 1), ``"nongreedy"`` (Eq. 17) or ``"adaptive"``
(Algo 2, with per-column ratio / cost-budget bookkeeping, so each column
flips between strategies on its own schedule while still sharing the
mat-mat).  ``"push"`` has no block form and runs one
:func:`~repro.diffusion.push.push_diffuse` per column.

Per-column thresholds are supported (``epsilon`` may be a length-``B``
array), which is what LACA's Step 3 needs: column ``b`` diffuses with
threshold ``ε·‖φ′_b‖₁``.  Every column satisfies the same Eq. (14)
additive guarantee as the sequential engines.
"""

from __future__ import annotations

import numpy as np

from ..graphs.graph import AttributedGraph
from .base import DiffusionResult, check_input_entries, note_kernel
from .push import push_diffuse

__all__ = ["validate_batch_inputs", "batch_diffuse"]

#: Safety valve of the block loop; Theorem IV.1's mass argument bounds
#: every column's iterations long before this for sane parameters.
MAX_ITERATIONS = 1_000_000


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
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"restart factor alpha must be in (0, 1), got {alpha}")
    eps = np.asarray(epsilon, dtype=np.float64)
    if eps.ndim == 0:
        eps = np.full(F.shape[1], float(eps))
    elif eps.shape != (F.shape[1],):
        raise ValueError(
            f"epsilon has shape {eps.shape}, expected a scalar or ({F.shape[1]},)"
        )
    if not (eps > 0.0).all():  # NaN fails too
        raise ValueError("diffusion threshold epsilon must be positive")
    check_input_entries(F)
    return F, eps


#: Retired columns ride along (masked) until fewer than this fraction of
#: the working block is still converging, then the block is compacted.
_COMPACT_LIMIT = 0.75


def _block_diffuse(
    graph: AttributedGraph,
    F: np.ndarray,
    eps: np.ndarray,
    alpha: float,
    mode: str,
    sigma: float,
) -> list[DiffusionResult]:
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
    ``F`` and ``eps`` come from :func:`validate_batch_inputs`.
    """
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
        if iterations >= MAX_ITERATIONS:
            raise RuntimeError(
                f"block diffusion did not terminate within {MAX_ITERATIONS} iterations"
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

    return [
        DiffusionResult(
            q=out_q[:, b],
            residual=out_r[:, b],
            iterations=int(column_iterations[b]),
            greedy_steps=int(greedy_steps[b]),
            nongreedy_steps=int(nongreedy_steps[b]),
            work=float(work[b]),
        )
        for b in range(n_cols)
    ]


def batch_diffuse(
    graph: AttributedGraph,
    F: np.ndarray,
    alpha: float = 0.8,
    epsilon=1e-6,
    engine: str = "greedy",
    sigma: float = 0.1,
) -> list[DiffusionResult]:
    """Diffuse every column of the ``n × B`` block ``F`` with ``engine``.

    Element ``b`` of the returned list is column ``b``'s run, bitwise
    the sequential engine's run on ``F[:, b]`` with threshold
    ``epsilon_b`` (``epsilon`` is a scalar or a length-``B`` array):
    the per-column batches replay the sequential schedule exactly and
    merely share one sparse mat-mat per iteration.  Its ``q`` and
    ``residual`` are views of the engine's ``n × B`` blocks; it tracks
    no frontier (``touched`` is None, ``frontier_peak`` 0).

    ``"greedy"``, ``"nongreedy"`` and ``"adaptive"`` (with balancing
    parameter ``sigma``) run natively on the block; ``"push"`` has no
    block form (its queue is inherently sequential), so it returns one
    :func:`push_diffuse` run per column.
    """
    if engine not in ("greedy", "nongreedy", "adaptive", "push"):
        raise ValueError(f"unknown diffusion engine {engine!r}")
    F, eps = validate_batch_inputs(F, graph.n, alpha, epsilon)
    if engine == "push":
        return [
            push_diffuse(graph, F[:, b], alpha=alpha, epsilon=float(eps[b]))
            for b in range(F.shape[1])
        ]
    if engine == "adaptive" and sigma < 0.0:
        raise ValueError(f"sigma must be non-negative, got {sigma}")
    return _block_diffuse(graph, F, eps, alpha, engine, sigma)
