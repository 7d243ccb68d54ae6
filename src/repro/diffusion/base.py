"""Shared types for RWR-based graph diffusion (Section IV).

All diffusion algorithms in this package estimate, for an input row vector
``f`` and restart factor ``α``, the quantity

    q_t ≈ Σ_i f_i · π(vi, vt)        with   0 ≤ (exact − q_t) ≤ ε · d(vt)

(Eq. 14), where ``π`` is the RWR score of Eq. (6): a walk stops at the
current node with probability ``1-α`` and moves to a uniform neighbor with
probability ``α``.  They differ only in *how* residual mass is converted:
node-at-a-time (push), batched above-threshold (greedy), everything-at-once
(non-greedy), or adaptively mixed (adaptive).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DiffusionResult",
    "validate_diffusion_inputs",
    "check_diffusion_parameters",
    "selective_scatter_is_cheaper",
    "block_diffusion_pays",
    "full_scatter_cost",
    "SELECTIVE_VOLUME_FRACTION",
    "begin_kernel_tally",
    "end_kernel_tally",
    "note_kernel",
]

#: Fraction of the full mat-vec cost below which the volume-proportional
#: selective kernels win.  The selective paths pay ~10-15 element-ops per
#: touched edge (index arithmetic, gathers, repeat, accumulate) against
#: the ~1.4 ns/nnz of scipy's C mat-vec plus its Θ(n) pre/post passes, so
#: they only pay off when the support volume is a small fraction of the
#: full cost (1/16 measured on the arxiv analogs; the switch is bitwise
#: output-neutral, so the constant is pure tuning).
SELECTIVE_VOLUME_FRACTION = 0.0625


def full_scatter_cost(nnz: int, n: int, n_columns: int = 1) -> float:
    """Cost model of one full transition mat-vec (or mat-mat of width B).

    ``nnz`` edge visits for the sparse product plus a handful of dense
    length-``n`` passes (degree normalization, residual update, support
    rescan), per column.
    """
    return float(nnz + 4 * n) * n_columns


def selective_scatter_is_cheaper(support_volume: float, full_cost: float) -> bool:
    """Volume-based kernel switch shared by sequential and batch engines.

    ``support_volume`` is ``degrees[support].sum()`` — the work the
    selective scatter actually performs — compared against the cost of a
    full mat-vec.  This replaces the pre-PR3 row-count heuristic
    (``|support| <= 64``), which mispredicts both ways: a small support of
    hubs can cover most of the graph's edges (selective loses), and a
    large support of leaves can cover almost none (selective wins).
    Both kernels produce bitwise-identical results, so this switch is a
    pure performance decision.
    """
    return support_volume <= SELECTIVE_VOLUME_FRACTION * full_cost


def block_diffusion_pays(kernel_counts: dict) -> bool:
    """Whether the rest of a block should share one block diffusion.

    ``kernel_counts`` is the kernel tally of the seeds a block answered
    so far, one at a time.  The block engine does Θ(n·B) work per
    iteration, which only pays once the sequential engines stop being
    local — i.e. once :func:`selective_scatter_is_cheaper` sends the
    majority of their scatters to the graph-wide ``"full"`` kernel.  A
    majority, not a single ``"full"``: one stray hub-heavy iteration of
    an otherwise local query must not send the rest of a local block
    into the block engine.  An empty tally (nothing answered yet) is
    never a majority, so every block answers its first seed sequentially.
    """
    return 2 * kernel_counts.get("full", 0) > sum(kernel_counts.values())


# --------------------------------------------------------------------------
# Kernel-selection tally (observability, PR 7).
#
# The scatter kernels are bitwise-identical, so *which one the volume
# switch picked* is invisible in results — yet it is the single best
# signal that the paper's locality claim holds on production traffic
# (local queries should land on "gather"/"csc", not "full").  Engines
# report their choice through a thread-local tally that costs one
# getattr + None check per scatter when nobody is listening, keeping the
# disabled overhead far below the serving layer's <3% tracing budget.
# Thread-local (not global) because the pool's workers and the head's
# dispatcher tally concurrently into different registries.

_TALLY = threading.local()


def begin_kernel_tally() -> dict:
    """Start counting kernel selections on this thread; returns the dict.

    The returned mapping ``{kernel_name: count}`` is filled in place by
    :func:`note_kernel` until :func:`end_kernel_tally`.  Nesting is not
    supported: a second ``begin`` replaces the first.
    """
    counts: dict[str, int] = {}
    _TALLY.counts = counts
    return counts


def end_kernel_tally() -> dict:
    """Stop counting and return the tally (empty if none was active)."""
    counts = getattr(_TALLY, "counts", None)
    _TALLY.counts = None
    return counts if counts is not None else {}


def note_kernel(kind: str) -> None:
    """Record one kernel selection if a tally is active on this thread."""
    counts = getattr(_TALLY, "counts", None)
    if counts is not None:
        counts[kind] = counts.get(kind, 0) + 1


@dataclass
class DiffusionResult:
    """Outcome of a diffusion run.

    Attributes
    ----------
    q:
        The diffused (reserve) vector satisfying Eq. (14).
    residual:
        Final residual vector ``r`` (all entries below ``ε·d(vi)``).
    iterations:
        Number of outer loop iterations executed.
    greedy_steps / nongreedy_steps:
        How many iterations used each strategy (Algo 2 bookkeeping).
    work:
        Cost-model work: Σ over iterations of the volume of the diffused
        support — the quantity bounded by ``‖f‖₁ / ((1-α)ε)``.
    residual_history:
        ``‖r‖₁`` after each iteration (Fig. 5's y-axis).
    touched:
        Sorted unique indices of every node the run wrote to (a superset
        of ``supp(q) ∪ supp(r)``) when the engine tracked its frontier;
        ``None`` when it did not (the reference kernels).  Lets callers
        recover the support in O(touched) instead of a length-``n`` scan.
    frontier_peak:
        Largest active frontier (rows diffused in one iteration, or
        peak queue length for push) seen during the run; 0 when the
        engine does not track it (the reference kernels, block paths).
    """

    q: np.ndarray
    residual: np.ndarray
    iterations: int
    greedy_steps: int = 0
    nongreedy_steps: int = 0
    work: float = 0.0
    residual_history: list[float] = field(default_factory=list)
    touched: np.ndarray | None = None
    frontier_peak: int = 0

    @property
    def support(self) -> np.ndarray:
        """Indices of non-zero entries of the diffused vector."""
        return np.flatnonzero(self.q)

    @property
    def support_size(self) -> int:
        return int(np.count_nonzero(self.q))


def check_diffusion_parameters(
    f: np.ndarray, n: int, alpha: float, epsilon: float
) -> np.ndarray:
    """Canonicalize ``f`` and check its shape, ``alpha`` and ``epsilon``.

    Everything :func:`validate_diffusion_inputs` checks except the Θ(n)
    non-negativity scan, which a caller vouching for ``supp(f)`` skips.
    """
    f = np.asarray(f, dtype=np.float64)
    if f.shape != (n,):
        raise ValueError(f"input vector has shape {f.shape}, expected ({n},)")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"restart factor alpha must be in (0, 1), got {alpha}")
    if epsilon <= 0.0:
        raise ValueError(f"diffusion threshold epsilon must be positive, got {epsilon}")
    return f


def validate_diffusion_inputs(
    f: np.ndarray, n: int, alpha: float, epsilon: float
) -> np.ndarray:
    """Check and canonicalize diffusion inputs shared by every algorithm."""
    f = check_diffusion_parameters(f, n, alpha, epsilon)
    if np.any(f < 0):
        raise ValueError("diffusion input vector must be non-negative")
    return f
