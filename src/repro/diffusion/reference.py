"""Pre-frontier reference kernels, retained for bitwise regression pinning.

These are the straightforward dense-scan implementations the frontier
engines (PR 3) replaced: every iteration scans the full residual vector,
allocates fresh length-``n`` scratch, and scatters either through a
per-row Python loop or a full sparse mat-vec.  They are deliberately kept
verbatim — same operations, same accumulation order — because the
frontier engines promise **bitwise identical** outputs, and these are the
oracle that promise is tested against (``tests/diffusion/
test_frontier_parity.py``) and benchmarked against (``benchmarks/
test_bench_frontier.py``).

Do not "improve" this module: its value is that it does not change.
"""

from __future__ import annotations

import numpy as np

from ..graphs.graph import AttributedGraph
from .base import DiffusionResult, validate_diffusion_inputs

__all__ = [
    "reference_selective_scatter",
    "reference_greedy_diffuse",
    "reference_nongreedy_diffuse",
    "reference_adaptive_diffuse",
    "reference_push_diffuse",
]

#: The pre-PR3 kernel switch: a *row count* threshold (not volume).
_SELECTIVE_LIMIT = 64


def reference_selective_scatter(
    graph: AttributedGraph, values: np.ndarray, support: np.ndarray
) -> np.ndarray:
    """``x P`` on a support via the original per-row Python loop."""
    out = np.zeros(graph.n)
    scaled = values[support] / graph.degrees[support]
    adj = graph.adjacency
    indptr, indices, data = adj.indptr, adj.indices, adj.data
    for pos, node in enumerate(support):
        lo, hi = indptr[node], indptr[node + 1]
        out[indices[lo:hi]] += scaled[pos] * data[lo:hi]
    return out


def _scatter(graph: AttributedGraph, gamma: np.ndarray, support: np.ndarray) -> np.ndarray:
    if support.shape[0] <= _SELECTIVE_LIMIT:
        return reference_selective_scatter(graph, gamma, support)
    return graph.adjacency.dot(gamma / graph.degrees)


def reference_greedy_diffuse(
    graph: AttributedGraph,
    f: np.ndarray,
    alpha: float = 0.8,
    epsilon: float = 1e-6,
    max_iterations: int = 1_000_000,
    track_history: bool = False,
) -> DiffusionResult:
    """GreedyDiffuse (Algo 1) exactly as shipped before the frontier rewrite."""
    f = validate_diffusion_inputs(f, graph.n, alpha, epsilon)
    degrees = graph.degrees
    r = f.copy()
    q = np.zeros(graph.n)
    history: list[float] = []
    work = 0.0
    iterations = 0

    while iterations < max_iterations:
        support = np.flatnonzero(r >= epsilon * degrees)
        if support.shape[0] == 0:
            break
        iterations += 1
        gamma = np.zeros(graph.n)
        gamma[support] = r[support]
        r[support] = 0.0
        q[support] += (1.0 - alpha) * gamma[support]
        r += alpha * _scatter(graph, gamma, support)
        work += float(degrees[support].sum())
        if track_history:
            history.append(float(np.abs(r).sum()))
    else:
        raise RuntimeError(
            f"GreedyDiffuse did not terminate within {max_iterations} iterations"
        )

    return DiffusionResult(
        q=q,
        residual=r,
        iterations=iterations,
        greedy_steps=iterations,
        work=work,
        residual_history=history,
    )


def reference_nongreedy_diffuse(
    graph: AttributedGraph,
    f: np.ndarray,
    alpha: float = 0.8,
    epsilon: float = 1e-6,
    max_iterations: int = 100_000,
    track_history: bool = False,
) -> DiffusionResult:
    """Non-greedy diffusion (Eq. 17) exactly as shipped pre-frontier."""
    f = validate_diffusion_inputs(f, graph.n, alpha, epsilon)
    degrees = graph.degrees
    r = f.copy()
    q = np.zeros(graph.n)
    history: list[float] = []
    work = 0.0
    iterations = 0

    while iterations < max_iterations:
        if not np.any(r >= epsilon * degrees):
            break
        iterations += 1
        work += graph.vector_volume(r)
        q += (1.0 - alpha) * r
        r = alpha * graph.adjacency.dot(r / degrees)
        if track_history:
            history.append(float(np.abs(r).sum()))
    else:
        raise RuntimeError(
            f"non-greedy diffusion did not terminate within {max_iterations} iterations"
        )

    return DiffusionResult(
        q=q,
        residual=r,
        iterations=iterations,
        nongreedy_steps=iterations,
        work=work,
        residual_history=history,
    )


def reference_adaptive_diffuse(
    graph: AttributedGraph,
    f: np.ndarray,
    alpha: float = 0.8,
    sigma: float = 0.1,
    epsilon: float = 1e-6,
    max_iterations: int = 1_000_000,
    track_history: bool = False,
) -> DiffusionResult:
    """AdaptiveDiffuse (Algo 2) exactly as shipped pre-frontier."""
    f = validate_diffusion_inputs(f, graph.n, alpha, epsilon)
    if sigma < 0.0:
        raise ValueError(f"sigma must be non-negative, got {sigma}")
    degrees = graph.degrees
    n = graph.n
    r = f.copy()
    q = np.zeros(n)
    history: list[float] = []
    budget = float(np.abs(f).sum()) / ((1.0 - alpha) * epsilon)
    c_tot = 0.0
    work = 0.0
    iterations = 0
    greedy_steps = 0
    nongreedy_steps = 0

    while iterations < max_iterations:
        gamma_support = np.flatnonzero(r >= epsilon * degrees)
        residual_support = np.count_nonzero(r)
        if residual_support == 0:
            break
        ratio = gamma_support.shape[0] / residual_support
        vol_r = float(degrees[r != 0].sum())

        if ratio > sigma and c_tot + vol_r < budget:
            iterations += 1
            nongreedy_steps += 1
            c_tot += vol_r
            work += vol_r
            q += (1.0 - alpha) * r
            r = alpha * graph.adjacency.dot(r / degrees)
        else:
            if gamma_support.shape[0] == 0:
                break
            iterations += 1
            greedy_steps += 1
            gamma = np.zeros(n)
            gamma[gamma_support] = r[gamma_support]
            r[gamma_support] = 0.0
            q[gamma_support] += (1.0 - alpha) * gamma[gamma_support]
            r += alpha * _scatter(graph, gamma, gamma_support)
            work += float(degrees[gamma_support].sum())
        if track_history:
            history.append(float(np.abs(r).sum()))
    else:
        raise RuntimeError(
            f"AdaptiveDiffuse did not terminate within {max_iterations} iterations"
        )

    return DiffusionResult(
        q=q,
        residual=r,
        iterations=iterations,
        greedy_steps=greedy_steps,
        nongreedy_steps=nongreedy_steps,
        work=work,
        residual_history=history,
    )


def reference_push_diffuse(
    graph: AttributedGraph,
    f: np.ndarray,
    alpha: float = 0.8,
    epsilon: float = 1e-6,
    max_pushes: int = 50_000_000,
) -> DiffusionResult:
    """Queue-based push diffusion exactly as shipped pre-frontier."""
    from collections import deque

    f = validate_diffusion_inputs(f, graph.n, alpha, epsilon)
    degrees = graph.degrees
    adjacency = graph.adjacency
    indptr, indices = adjacency.indptr, adjacency.indices
    r = f.copy()
    q = np.zeros(graph.n)

    queue = deque(int(i) for i in np.flatnonzero(r >= epsilon * degrees))
    in_queue = np.zeros(graph.n, dtype=bool)
    in_queue[list(queue)] = True

    pushes = 0
    work = 0.0
    while queue:
        if pushes >= max_pushes:
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
        for neighbor in indices[indptr[node] : indptr[node + 1]]:
            r[neighbor] += share
            if not in_queue[neighbor] and r[neighbor] >= epsilon * degrees[neighbor]:
                queue.append(int(neighbor))
                in_queue[neighbor] = True

    return DiffusionResult(
        q=q,
        residual=r,
        iterations=pushes,
        greedy_steps=pushes,
        work=work,
    )
