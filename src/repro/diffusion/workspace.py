"""Reusable scratch buffers + the shared frontier scatter kernel (PR 3).

The frontier engines touch only the nodes whose residual changed since
the last iteration, so the *work* per query is proportional to the
support volume (Theorem IV.1).  What used to dominate steady-state
serving was everything else: every query allocated ~6 fresh length-``n``
arrays and every iteration re-scanned all ``n`` residuals.

:class:`DiffusionWorkspace` removes the allocations: one workspace owns
two engine slots (LACA runs two diffusions per query: RWR then BDD),
an input staging buffer, a scores staging buffer, and the dense
mat-vec scratch.  Buffers are recycled between queries in O(touched) —
each engine run records exactly the indices it dirtied, and
:meth:`DiffusionWorkspace.begin` zeroes only those.  A steady-state
query whose diffusion stays in the local regime performs **zero**
length-``n`` allocations.

A workspace is single-threaded state: one per thread, never shared
across threads.  The serving dispatcher owns one per usable CPU, one for
each thread of a fanned-out block (:mod:`repro.core.routing`).
"""

from __future__ import annotations

import numpy as np

from ..graphs.graph import AttributedGraph
from .base import full_scatter_cost, note_kernel, selective_scatter_is_cheaper

__all__ = [
    "DiffusionWorkspace",
    "engine_setup",
    "collect_touched",
    "scatter_step",
    "sorted_union",
]

#: Gather volumes at or below ``n / _UNIQUE_FRACTION`` accumulate through
#: ``np.unique`` + ``np.bincount`` over the inverse mapping — O(vol log vol)
#: with no length-``n`` touch at all (the zero-allocation serving regime).
#: Larger local volumes accumulate into a dense length-``n`` scratch
#: (``np.add.at`` / ``np.bincount``), whose Θ(n) pass is still far below
#: the full mat-vec it avoids.  Both orders are bitwise identical.
_UNIQUE_FRACTION = 8


class _EngineSlot:
    """One engine run's (q, r, seen) buffer triple with dirty tracking."""

    __slots__ = ("q", "r", "seen", "chunks", "full", "_dirty_count")

    def __init__(self, n: int) -> None:
        self.q = np.zeros(n)
        self.r = np.zeros(n)
        self.seen = np.zeros(n, dtype=bool)
        self.chunks: list[np.ndarray] = []
        #: Once the run has dirtied a large fraction of the graph the
        #: per-index bookkeeping costs more than it saves: flip to
        #: whole-buffer (memset) recycling and stop tracking.
        self.full = False
        self._dirty_count = 0

    def note(self, indices: np.ndarray) -> None:
        """Record not-yet-seen ``indices`` as dirty."""
        if self.full:
            return
        fresh = indices[~self.seen[indices]]
        if fresh.size:
            self.seen[fresh] = True
            self.chunks.append(fresh)
            self._dirty_count += int(fresh.size)
            if 2 * self._dirty_count >= self.q.shape[0]:
                self.full = True
                self.chunks = []

    def note_all(self) -> None:
        """A full mat-vec touched the whole buffer: stop tracking."""
        self.full = True
        self.chunks = []

    def reset(self) -> None:
        """Zero the entries the last run touched — O(touched), or one
        memset once the run went graph-wide."""
        if self.full:
            self.q[:] = 0.0
            self.r[:] = 0.0
            self.seen[:] = False
            self.full = False
        else:
            for chunk in self.chunks:
                self.q[chunk] = 0.0
                self.r[chunk] = 0.0
                self.seen[chunk] = False
        self.chunks = []
        self._dirty_count = 0


class DiffusionWorkspace:
    """Preallocated per-thread scratch for the frontier diffusion engines.

    Usage::

        ws = DiffusionWorkspace(graph)          # or LACA.make_workspace()
        ws.begin()                              # start a query (O(touched))
        result = greedy_diffuse(graph, f, workspace=ws)

    :meth:`begin` recycles every buffer and **invalidates all arrays
    returned by runs since the previous begin** — results are views into
    workspace memory; copy anything that must outlive the next query.
    At most two engine runs fit between two ``begin`` calls (exactly what
    one LACA query needs); a third raises.
    """

    def __init__(self, graph: AttributedGraph) -> None:
        n = graph.n
        self.graph = graph
        self.n = n
        #: Dense scatter-accumulator scratch.  Invariant: all-zero between
        #: kernel invocations (each use undoes itself).
        self.staging = np.zeros(n)
        #: Value-agnostic scratch (divided copies); fully overwritten
        #: before every use, so it carries no invariant.
        self.scratch = np.empty(n)
        #: Input staging for LACA (the one-hot seed, then φ′).
        self.input = np.zeros(n)
        #: Output staging for LACA's ρ′ scores.
        self.scores = np.zeros(n)
        #: Queue-membership flags for the push engine (self-cleaning).
        self.in_queue = np.zeros(n, dtype=bool)
        self._slots = [_EngineSlot(n), _EngineSlot(n)]
        self._free: list[_EngineSlot] = list(self._slots)
        self._input_dirty: list[np.ndarray] = []
        self._scores_dirty: list[np.ndarray] = []

    # ------------------------------------------------------------------
    def begin(self) -> "DiffusionWorkspace":
        """Start a new query: zero all dirty regions, free both slots."""
        for slot in self._slots:
            slot.reset()
        self._free = list(self._slots)
        for chunk in self._input_dirty:
            self.input[chunk] = 0.0
        self._input_dirty = []
        for chunk in self._scores_dirty:
            self.scores[chunk] = 0.0
        self._scores_dirty = []
        return self

    def acquire(self) -> _EngineSlot:
        """Hand a clean (q, r, seen) slot to an engine run."""
        if not self._free:
            raise RuntimeError(
                "DiffusionWorkspace exhausted: at most two engine runs fit "
                "between begin() calls (one LACA query); call begin() to "
                "recycle — this invalidates previously returned results"
            )
        return self._free.pop()

    def note_input(self, indices: np.ndarray) -> None:
        """Mark ``input`` entries written by the caller as dirty."""
        self._input_dirty.append(np.asarray(indices))

    def note_scores(self, indices: np.ndarray) -> None:
        """Mark ``scores`` entries written by the caller as dirty."""
        self._scores_dirty.append(np.asarray(indices))


def engine_setup(
    graph: AttributedGraph,
    f: np.ndarray,
    alpha: float,
    epsilon: float,
    workspace: "DiffusionWorkspace | None",
    f_support: np.ndarray | None,
) -> tuple[np.ndarray, _EngineSlot, np.ndarray, np.ndarray | None]:
    """Shared engine prologue: validate, stage ``r``, build the first frontier.

    Returns ``(f, slot, candidates, staging)``.  ``slot`` carries the
    ``q``/``r`` buffers and dirty tracking (a detached fresh-buffer slot
    when no workspace is given — one code path for both modes).
    ``candidates`` is the sorted initial frontier: ``supp(f)``, or the
    caller-supplied ``f_support`` — a sorted index array covering
    ``supp(f)`` whose caller vouches ``f`` is non-negative and zero
    elsewhere, letting LACA skip the engine's only length-``n`` scans.
    """
    from .base import validate_diffusion_inputs

    n = graph.n
    if workspace is not None and workspace.n != n:
        raise ValueError(f"workspace was built for n={workspace.n}, graph has n={n}")
    if f_support is None:
        f = validate_diffusion_inputs(f, n, alpha, epsilon)
        candidates = np.flatnonzero(f)
    else:
        f = np.asarray(f, dtype=np.float64)
        if f.shape != (n,):
            raise ValueError(f"input vector has shape {f.shape}, expected ({n},)")
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"restart factor alpha must be in (0, 1), got {alpha}")
        if epsilon <= 0.0:
            raise ValueError(
                f"diffusion threshold epsilon must be positive, got {epsilon}"
            )
        candidates = np.asarray(f_support, dtype=np.int64)
    if workspace is None:
        slot = _EngineSlot(n)
        staging = None
    else:
        slot = workspace.acquire()
        staging = workspace.staging
    slot.r[candidates] = f[candidates]
    slot.note(candidates)
    return f, slot, candidates, staging


def collect_touched(slot: _EngineSlot) -> np.ndarray | None:
    """Sorted unique touched set from the slot's disjoint dirty chunks.

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
    staging: np.ndarray | None = None,
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
    about speed.  ``staging`` is an all-zero length-``n`` scratch (the
    workspace's) that the full path restores before returning.
    """
    n = graph.n
    adjacency = graph.adjacency
    if not selective_scatter_is_cheaper(volume, full_scatter_cost(adjacency.nnz, n)):
        note_kernel("full")
        temporary = staging is None
        if temporary:
            staging = np.zeros(n)
        scaled = vals / graph.degrees[rows]
        staging[rows] = scaled
        dense = adjacency.dot(staging)
        if not temporary:
            staging[rows] = 0.0
        return None, None, dense
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
