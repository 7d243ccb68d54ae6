"""GreedyDiffuse, non-greedy and AdaptiveDiffuse as modes of one frontier loop.

The paper's AdaptiveDiffuse (Algo 2) is one loop with two conversion
rules: Algo 1's above-threshold batch ``γ`` (Eq. 15/16), which converts
a ``1-α`` fraction of each batch residual into reserves and scatters the
rest to neighbors, and Eq. 17's one-shot conversion of *every* residual,
``q += (1-α) r;  r ← α r P``.  :func:`_frontier_diffuse` is that loop,
shaped like :func:`repro.diffusion.batch._block_diffuse`; its ``mode``
decides which rule an iteration applies:

* ``"greedy"`` — always the batch (GreedyDiffuse, Algo 1; Theorem IV.1
  bounds its work by ``O(max{|supp(f)|, ‖f‖₁ / ((1-α)ε)})``);
* ``"nongreedy"`` — always the one-shot conversion (the power iteration
  Section IV-B and our Fig. 5 compare against: ``‖r‖₁`` decays as
  ``αᵗ``, at up to O(m) per iteration);
* ``"adaptive"`` — the one-shot conversion while the batch covers more
  than ``σ`` of ``supp(r)`` and the accumulated one-shot cost stays under
  GreedyDiffuse's budget ``‖f‖₁ / ((1-α)ε)``, the batch otherwise
  (Algo 2; ``σ ≥ 1`` is Algo 1, Lemma IV.3's ``β = 1`` case).

Every mode stops once no residual is at or above ``ε·d(vi)``, the Eq. (14)
guarantee.  The loop inspects an explicit node set, never all ``n``,
while the diffusion stays local.  Greedy mode tracks the *frontier*: only
a node the last scatter touched can newly clear the threshold.  The other
modes track a sorted superset of ``supp(r)``, which the one-shot
conversion and Algo 2's ratio need.  Once the set covers a third of the
graph, or a full mat-vec leaves it unknown, iterations run the reference
kernels' dense C-speed scans until a volume-local scatter re-localizes
it.  The scatter picks its kernel by volume
(:func:`~repro.diffusion.workspace.scatter_step`) and every path
accumulates in ascending-node order, so outputs, and adaptive's
greedy/one-shot *schedule* (which consumes ``vol(r)`` float sums), are
bitwise identical to :mod:`repro.diffusion.reference` (pinned by
``tests/diffusion/test_frontier_parity.py``).
"""

from __future__ import annotations

import numpy as np

from ..graphs.graph import AttributedGraph
from .base import (
    DiffusionResult,
    full_scatter_cost,
    note_kernel,
    selective_scatter_is_cheaper,
)
from .workspace import (
    DiffusionWorkspace,
    collect_touched,
    engine_setup,
    scatter_step,
    sorted_union,
)

__all__ = ["greedy_diffuse", "nongreedy_diffuse", "adaptive_diffuse"]

#: How each mode names itself in its "did not terminate" error.
_LABELS = {
    "greedy": "GreedyDiffuse",
    "nongreedy": "non-greedy diffusion",
    "adaptive": "AdaptiveDiffuse",
}


def _frontier_diffuse(
    graph: AttributedGraph,
    f: np.ndarray,
    alpha: float,
    epsilon: float,
    mode: str,
    sigma: float = 0.1,
    max_iterations: int = 1_000_000,
    track_history: bool = False,
    workspace: DiffusionWorkspace | None = None,
    f_support: np.ndarray | None = None,
) -> DiffusionResult:
    """Shared loop: each iteration converts the batch γ or every residual.

    ``mode`` decides only what the algorithms differ in: which batch an
    iteration converts and which node set the loop tracks (see the
    module docstring).  Selection, conversion, the scatter, the
    dense-regime fallback and the result are common to all three.
    """
    if mode == "adaptive" and sigma < 0.0:
        raise ValueError(f"sigma must be non-negative, got {sigma}")
    f, slot, tracked, staging = engine_setup(
        graph, f, alpha, epsilon, workspace, f_support
    )
    q, r = slot.q, slot.r
    degrees = graph.degrees
    n = graph.n
    if mode == "adaptive":
        # f is validated non-negative, so f.sum() ≡ np.abs(f).sum() bitwise.
        budget = float(f.sum()) / ((1.0 - alpha) * epsilon)
    history: list[float] = []
    c_tot = 0.0
    work = 0.0
    iterations = 0
    greedy_steps = 0
    nongreedy_steps = 0
    frontier_peak = 0

    # ``tracked`` is the inspected node set, sorted; ``None`` flags the
    # dense regime, where selection scans all n at C speed instead.
    while True:
        if iterations >= max_iterations:
            raise RuntimeError(
                f"{_LABELS[mode]} did not terminate within {max_iterations} iterations"
            )
        if tracked is not None and 3 * tracked.size > n:
            tracked = None
        if tracked is not None and tracked.size == 0:
            break

        # Select: the above-threshold batch, or the residual support
        # ``nonzero`` with its volume for a one-shot conversion.
        if mode == "greedy":
            if tracked is None:
                batch = np.flatnonzero(r >= epsilon * degrees)
            else:
                batch = tracked[r[tracked] >= epsilon * degrees[tracked]]
            if batch.size == 0:
                break
            one_shot = False
        elif mode == "nongreedy":
            if tracked is None:
                if not np.any(r >= epsilon * degrees):
                    break
                nonzero = np.flatnonzero(r)
            else:
                values = r[tracked]
                if not np.any(values >= epsilon * degrees[tracked]):
                    break
                nonzero = tracked[values != 0.0]
            volume = float(degrees[nonzero].sum())
            one_shot = True
        else:
            if tracked is None:
                nonzero = None  # materialized only if the ratio clears σ
                n_nonzero = int(np.count_nonzero(r))
                if n_nonzero == 0:
                    break
                batch = np.flatnonzero(r >= epsilon * degrees)
                n_above = int(batch.size)
            else:
                values = r[tracked]
                nonzero_mask = values != 0.0
                n_nonzero = int(np.count_nonzero(nonzero_mask))
                if n_nonzero == 0:
                    break
                above_mask = values >= epsilon * degrees[tracked]
                n_above = int(np.count_nonzero(above_mask))
                nonzero = tracked[nonzero_mask]
            # vol(r) is only consulted once the coverage ratio clears σ,
            # so the long greedy tail skips its Θ(supp) scan; the
            # schedule is the one an eager scan would give.
            one_shot = False
            if n_above / n_nonzero > sigma:
                if nonzero is None:
                    nonzero = np.flatnonzero(r)
                volume = float(degrees[nonzero].sum())
                one_shot = c_tot + volume < budget
            if one_shot:
                c_tot += volume
            else:
                if n_above == 0:
                    break
                if tracked is not None:
                    batch = tracked[above_mask]

        iterations += 1
        if one_shot:
            # Eq. 17: convert and scatter every residual at once.
            nongreedy_steps += 1
            frontier_peak = max(frontier_peak, int(nonzero.size))
            work += volume
            if tracked is None:
                q += (1.0 - alpha) * r
            else:
                q[tracked] += (1.0 - alpha) * values
            if tracked is None and not selective_scatter_is_cheaper(
                volume, full_scatter_cost(graph.adjacency.nnz, n)
            ):
                # r is dense here: one dense divide beats staging gathers.
                note_kernel("full")
                scratch = None if workspace is None else workspace.scratch
                dense = graph.adjacency.dot(np.divide(r, degrees, out=scratch))
            else:
                touched, sums, dense = scatter_step(
                    graph, nonzero, r[nonzero], volume, staging
                )
            if dense is None:
                r[nonzero] = 0.0
                r[touched] = alpha * sums
                tracked = touched
            else:
                np.multiply(dense, alpha, out=r)
        else:
            # Eq. 15/16: convert only the above-threshold batch (Algo 1).
            greedy_steps += 1
            frontier_peak = max(frontier_peak, int(batch.size))
            values = r[batch]  # fancy indexing copies — the batch γ
            volume = float(degrees[batch].sum())
            work += volume
            r[batch] = 0.0
            q[batch] += (1.0 - alpha) * values
            touched, sums, dense = scatter_step(graph, batch, values, volume, staging)
            if dense is None:
                r[touched] += alpha * sums
                if mode == "greedy":
                    tracked = touched
                elif tracked is not None:
                    # supp(r): the unconverted residuals plus the touched.
                    tracked = sorted_union(
                        tracked[nonzero_mask & ~above_mask], touched
                    )
            else:
                dense *= alpha
                r += dense
        if dense is None:
            slot.note(touched)
        else:
            tracked = None
            slot.note_all()
        if track_history:
            history.append(float(np.abs(r).sum()))

    return DiffusionResult(
        q=q,
        residual=r,
        iterations=iterations,
        greedy_steps=greedy_steps,
        nongreedy_steps=nongreedy_steps,
        work=work,
        residual_history=history,
        touched=collect_touched(slot),
        frontier_peak=frontier_peak,
    )


def greedy_diffuse(
    graph: AttributedGraph,
    f: np.ndarray,
    alpha: float = 0.8,
    epsilon: float = 1e-6,
    max_iterations: int = 1_000_000,
    track_history: bool = False,
    workspace: DiffusionWorkspace | None = None,
    f_support: np.ndarray | None = None,
) -> DiffusionResult:
    """Run GreedyDiffuse (Algo 1) on input vector ``f``.

    Parameters
    ----------
    graph:
        The graph to diffuse over.
    f:
        Non-negative length-``n`` input vector.
    alpha:
        Restart factor; mass moves with probability ``α``.
    epsilon:
        Diffusion threshold of Eq. (15); the output obeys Eq. (14).
    max_iterations:
        Safety valve; Theorem IV.1's mass argument guarantees termination
        long before this for sane parameters.
    track_history:
        Record ``‖r‖₁`` after every iteration (used by Fig. 5).  This is
        the one diagnostic that costs Θ(n) per iteration.
    workspace:
        Optional :class:`DiffusionWorkspace` whose preallocated buffers
        back ``q``/``r`` — the returned arrays are then views valid until
        the workspace's next ``begin()``.
    f_support:
        Optional sorted index array covering ``supp(f)``; the caller
        vouches ``f`` is non-negative and zero elsewhere, which lets the
        engine skip its only length-``n`` input scan.
    """
    return _frontier_diffuse(
        graph, f, alpha, epsilon, "greedy",
        max_iterations=max_iterations, track_history=track_history,
        workspace=workspace, f_support=f_support,
    )


def nongreedy_diffuse(
    graph: AttributedGraph,
    f: np.ndarray,
    alpha: float = 0.8,
    epsilon: float = 1e-6,
    max_iterations: int = 100_000,
    track_history: bool = False,
    workspace: DiffusionWorkspace | None = None,
    f_support: np.ndarray | None = None,
) -> DiffusionResult:
    """Run the non-greedy power-iteration diffusion (Eq. 17) on ``f``.

    Parameters follow :func:`greedy_diffuse`.
    """
    return _frontier_diffuse(
        graph, f, alpha, epsilon, "nongreedy",
        max_iterations=max_iterations, track_history=track_history,
        workspace=workspace, f_support=f_support,
    )


def adaptive_diffuse(
    graph: AttributedGraph,
    f: np.ndarray,
    alpha: float = 0.8,
    sigma: float = 0.1,
    epsilon: float = 1e-6,
    max_iterations: int = 1_000_000,
    track_history: bool = False,
    workspace: DiffusionWorkspace | None = None,
    f_support: np.ndarray | None = None,
) -> DiffusionResult:
    """Run AdaptiveDiffuse (Algo 2) on input vector ``f``.

    ``sigma`` is the balancing parameter, ``σ ≥ 0``.  Smaller values
    allow more one-shot iterations; ``σ ≥ 1`` makes the run identical to
    :func:`greedy_diffuse` (Lemma IV.3's ``β = 1`` case).  The other
    parameters follow :func:`greedy_diffuse`.
    """
    return _frontier_diffuse(
        graph, f, alpha, epsilon, "adaptive", sigma=sigma,
        max_iterations=max_iterations, track_history=track_history,
        workspace=workspace, f_support=f_support,
    )
