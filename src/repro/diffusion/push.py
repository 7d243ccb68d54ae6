"""Classic node-at-a-time push diffusion (Andersen-Chung-Lang style).

This is the traversal-based approach the paper contrasts its batched
mat-vec algorithms against (Section IV: "intensive memory access patterns
in previous traversal/sampling-based diffusion approaches").  One node is
popped from a FIFO queue at a time; its residual is converted and pushed
to its neighbors.  Satisfies the same Eq. (14) guarantee under the same
threshold, and is genuinely local (no O(n) allocations per push).

Used as the engine of the PR-Nibble / APR-Nibble baselines and as an
independent cross-check of the batched algorithms in tests.

The per-neighbor Python loop of the original implementation is replaced
by one vectorized update per push (bulk residual add, bulk threshold
check, bulk queue admission).  Neighbor lists hold distinct nodes, so
the bulk update performs exactly the element-wise operations of the old
loop, in the same order — outputs are bitwise identical to
:func:`repro.diffusion.reference.reference_push_diffuse`.  With a
:class:`~repro.diffusion.workspace.DiffusionWorkspace` the run reuses
preallocated ``q``/``r``/queue-flag buffers (recycled in O(touched)).
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..graphs.graph import AttributedGraph
from .base import DiffusionResult, note_kernel
from .workspace import DiffusionWorkspace, collect_touched, engine_setup

__all__ = ["push_diffuse"]


def push_diffuse(
    graph: AttributedGraph,
    f: np.ndarray,
    alpha: float = 0.8,
    epsilon: float = 1e-6,
    max_pushes: int = 50_000_000,
    workspace: DiffusionWorkspace | None = None,
    f_support: np.ndarray | None = None,
) -> DiffusionResult:
    """Queue-based push diffusion of ``f`` with threshold ``ε``.

    ``workspace`` / ``f_support`` follow the same contract as
    :func:`~repro.diffusion.frontier.greedy_diffuse`.
    """
    f, slot, candidates, _staging = engine_setup(
        graph, f, alpha, epsilon, workspace, f_support
    )
    q, r = slot.q, slot.r
    degrees = graph.degrees
    adjacency = graph.adjacency
    indptr, indices = adjacency.indptr, adjacency.indices

    initial = candidates[r[candidates] >= epsilon * degrees[candidates]]
    queue = deque(int(i) for i in initial)
    if workspace is None:
        in_queue = np.zeros(graph.n, dtype=bool)
    else:
        in_queue = workspace.in_queue  # all-False between runs (self-cleaning)
    in_queue[initial] = True

    # One tally mark per run (not per push): the queue loop *is* the
    # kernel; per-push marks would swamp the per-scatter counts of the
    # batched engines it is compared against.
    note_kernel("push")
    pushes = 0
    work = 0.0
    frontier_peak = len(queue)
    while queue:
        if pushes >= max_pushes:
            # Leave the workspace flags clean before surfacing the error.
            if workspace is not None:
                in_queue[np.fromiter(queue, dtype=np.int64)] = False
            raise RuntimeError(f"push diffusion exceeded {max_pushes} pushes")
        node = queue.popleft()
        in_queue[node] = False
        residual = r[node]
        if residual < epsilon * degrees[node]:
            continue
        pushes += 1
        work += degrees[node]
        r[node] = 0.0
        q[node] += (1.0 - alpha) * residual
        share = alpha * residual / degrees[node]
        neighbors = indices[indptr[node] : indptr[node + 1]]
        r[neighbors] += share
        slot.note(neighbors)
        admit = neighbors[
            ~in_queue[neighbors] & (r[neighbors] >= epsilon * degrees[neighbors])
        ]
        queue.extend(admit.tolist())
        in_queue[admit] = True
        if len(queue) > frontier_peak:
            frontier_peak = len(queue)

    return DiffusionResult(
        q=q,
        residual=r,
        iterations=pushes,
        greedy_steps=pushes,
        work=work,
        residual_history=[],
        touched=collect_touched(slot),
        frontier_peak=frontier_peak,
    )
