"""The frontier engines' shared prologue, touched-set tracking and scatter.

The frontier engines (:mod:`repro.diffusion.frontier`,
:mod:`repro.diffusion.push`) touch only the nodes whose residual changed
since the last iteration, so the *work* per query is proportional to the
support volume (Theorem IV.1).  This module holds what they share:

* :func:`engine_setup` validates the input and hands each run an
  :class:`_EngineSlot` of fresh ``q``/``r`` buffers;
* the slot records every node the run touched, and
  :func:`collect_touched` returns that set sorted, so callers can stay
  O(support) instead of scanning all ``n`` entries;
* :func:`scatter_step` is one ``γ P`` transition scatter, whose kernel
  is picked by volume;
* :func:`sorted_union` merges two sorted frontiers.
"""

from __future__ import annotations

import numpy as np

from ..graphs.graph import AttributedGraph
from .base import (
    check_diffusion_parameters,
    full_scatter_cost,
    note_kernel,
    selective_scatter_is_cheaper,
    validate_diffusion_inputs,
)

__all__ = [
    "engine_setup",
    "collect_touched",
    "scatter_step",
    "sorted_union",
]

#: Gather volumes at or below ``n / _UNIQUE_FRACTION`` accumulate through
#: ``np.unique`` + ``np.bincount`` over the inverse mapping — O(vol log vol)
#: with no length-``n`` touch at all.  Larger local volumes run one CSC
#: mat-vec over the support rows, whose length-``n`` output is still far
#: below the full mat-vec it avoids.  Both orders are bitwise identical.
_UNIQUE_FRACTION = 8


class _EngineSlot:
    """One engine run's ``q``/``r`` buffers and the set of nodes it touched."""

    __slots__ = ("q", "r", "seen", "chunks", "full", "_touched_count")

    def __init__(self, n: int) -> None:
        self.q = np.zeros(n)
        self.r = np.zeros(n)
        self.seen = np.zeros(n, dtype=bool)
        self.chunks: list[np.ndarray] = []
        #: Once the run has touched a large fraction of the graph, a
        #: length-``n`` scan costs less than the per-index bookkeeping:
        #: stop tracking.
        self.full = False
        self._touched_count = 0

    def note(self, indices: np.ndarray) -> None:
        """Record not-yet-seen ``indices`` as touched."""
        if self.full:
            return
        fresh = indices[~self.seen[indices]]
        if fresh.size:
            self.seen[fresh] = True
            self.chunks.append(fresh)
            self._touched_count += int(fresh.size)
            if 2 * self._touched_count >= self.q.shape[0]:
                self.full = True
                self.chunks = []

    def note_all(self) -> None:
        """A full mat-vec touched the whole buffer: stop tracking."""
        self.full = True
        self.chunks = []


def engine_setup(
    graph: AttributedGraph,
    f: np.ndarray,
    alpha: float,
    epsilon: float,
    f_support: np.ndarray | None,
) -> tuple[np.ndarray, _EngineSlot, np.ndarray]:
    """Shared engine prologue: validate, stage ``r``, build the first frontier.

    Returns ``(f, slot, candidates)``.  ``slot`` carries the run's fresh
    ``q``/``r`` buffers and its touched-set tracking.  ``candidates`` is
    the sorted initial frontier: ``supp(f)``, or the caller-supplied
    ``f_support`` — a sorted index array covering ``supp(f)`` whose
    caller vouches ``f`` is non-negative and zero elsewhere, letting
    LACA skip the engine's only length-``n`` scans.
    """
    n = graph.n
    if f_support is None:
        f = validate_diffusion_inputs(f, n, alpha, epsilon)
        candidates = np.flatnonzero(f)
    else:
        f = check_diffusion_parameters(f, n, alpha, epsilon)
        candidates = np.asarray(f_support, dtype=np.int64)
    slot = _EngineSlot(n)
    slot.r[candidates] = f[candidates]
    slot.note(candidates)
    return f, slot, candidates


def collect_touched(slot: _EngineSlot) -> np.ndarray | None:
    """Sorted unique touched set from the slot's disjoint chunks.

    ``None`` once the run went graph-wide (the slot stopped tracking);
    callers fall back to a length-``n`` scan, which is what such a run
    costs anyway.
    """
    if slot.full:
        return None
    if not slot.chunks:
        return np.empty(0, dtype=np.int64)
    return np.sort(np.concatenate(slot.chunks))


def sorted_union(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Union of two sorted unique index arrays, sorted unique.

    Equivalent to ``np.union1d`` but via an explicit sort + dedup —
    NumPy ≥ 2.4 routes ``union1d`` through a hashmap that is an order of
    magnitude slower on the small frontier arrays this is called with.
    """
    merged = np.sort(np.concatenate([a, b]))
    if merged.size == 0:
        return merged
    keep = np.empty(merged.size, dtype=bool)
    keep[0] = True
    np.not_equal(merged[1:], merged[:-1], out=keep[1:])
    return merged[keep]


def scatter_step(
    graph: AttributedGraph,
    rows: np.ndarray,
    vals: np.ndarray,
    volume: float,
) -> tuple[np.ndarray | None, np.ndarray | None, np.ndarray | None]:
    """One ``α``-free transition scatter ``γ P`` from ``rows`` (sorted).

    Returns ``(touched, sums, dense)`` where exactly one side is set:

    * local regime (volume ≤ n/8) — ``touched`` (sorted unique changed
      nodes) and ``sums`` (their scatter totals), ``dense`` is ``None``;
      no length-``n`` array is touched or allocated;
    * mid regime — a C-speed row slice + CSC mat-vec over exactly the
      support rows: ``dense`` is the complete scatter vector (a fresh
      array the caller may consume in place), the other two ``None``;
    * full regime (volume beyond the mat-vec cost) — one full sparse
      mat-vec, same ``dense`` contract.

    Every regime accumulates contributions in ascending-row CSR order, so
    results are bitwise identical to the reference kernels regardless of
    which path runs; the choice (volume-based, see
    :func:`~repro.diffusion.base.selective_scatter_is_cheaper`) is purely
    about speed.
    """
    n = graph.n
    adjacency = graph.adjacency
    if not selective_scatter_is_cheaper(volume, full_scatter_cost(adjacency.nnz, n)):
        note_kernel("full")
        scaled = np.zeros(n)
        scaled[rows] = vals / graph.degrees[rows]
        return None, None, adjacency.dot(scaled)
    if volume * _UNIQUE_FRACTION <= n:
        note_kernel("gather")
        cols, contrib = graph.transition_gather(vals, rows)
        touched, inverse = np.unique(cols, return_inverse=True)
        return touched, np.bincount(inverse, weights=contrib), None
    # Mid regime: slice the support rows (C) and run one CSC mat-vec over
    # them — columns are visited in ascending support order, each row in
    # CSR order, exactly the reference loop's accumulation order.
    note_kernel("csc")
    scaled = vals / graph.degrees[rows]
    dense = adjacency[rows].T.dot(scaled)
    return None, None, dense
