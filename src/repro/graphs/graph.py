"""Attributed graph substrate.

The paper operates on connected, undirected, unweighted graphs ``G = (V, E)``
whose nodes may carry an L2-normalized attribute vector (Section II-A).  This
module provides :class:`AttributedGraph`, a CSR-backed container exposing the
quantities the algorithms need: degrees, volumes, the transition operator
``P = D^{-1} A`` applied to row vectors, neighbor access, and ground-truth
community bookkeeping used for evaluation.

The attribute matrix is also held as a tuple of fixed
``ATTRIBUTE_BLOCK_ROWS``-row blocks (:attr:`AttributedGraph.attribute_blocks`),
so the incremental store (:mod:`repro.graphs.store`) can build the next
snapshot by copying only the blocks a delta rewrites and sharing the rest.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

__all__ = ["ATTRIBUTE_BLOCK_ROWS", "AttributedGraph", "normalize_rows", "row_blocks"]

#: Rows per attribute block; the last block of a graph may be partial.
ATTRIBUTE_BLOCK_ROWS = 1024


def _raise_isolated(degrees: np.ndarray) -> None:
    """Raise the isolated-node error with an actionable message.

    Shared between construction-time validation and the incremental
    update path (:mod:`repro.graphs.store`), where edge deletions are the
    usual culprit: the message names the offending node ids so callers
    can see which deletion stranded them.
    """
    isolated = np.flatnonzero(degrees == 0)
    preview = ", ".join(str(int(node)) for node in isolated[:5])
    suffix = ", ..." if isolated.size > 5 else ""
    raise ValueError(
        f"graph has {isolated.size} isolated node(s) (node ids: {preview}"
        f"{suffix}); the diffusion operators require every node to have "
        "at least one neighbor"
    )


def normalize_rows(matrix: np.ndarray) -> np.ndarray:
    """Return a copy of ``matrix`` with each row scaled to unit L2 norm.

    Rows that are entirely zero are left as zeros (they cannot be
    normalized); the paper assumes ``‖x(i)‖₂ = 1`` and the dataset
    generators never emit all-zero rows, but user-supplied matrices may.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    norms = np.linalg.norm(matrix, axis=1)
    safe = np.where(norms > 0.0, norms, 1.0)
    return matrix / safe[:, None]


def row_blocks(matrix: np.ndarray) -> tuple[np.ndarray, ...]:
    """Zero-copy views of ``matrix``'s consecutive ``ATTRIBUTE_BLOCK_ROWS``-row
    blocks; the last may be partial, and an empty matrix gives one empty
    block."""
    size = ATTRIBUTE_BLOCK_ROWS
    return tuple(
        matrix[lo : lo + size] for lo in range(0, max(matrix.shape[0], 1), size)
    )


class _UnpublishedRows:
    """The ``attribute_blocks`` of an attributed graph that holds no rows.

    A pool worker's snapshot, attached from shared memory
    (:mod:`repro.graphs.shm`), answers from the TNAM factor and is never
    given the attribute rows.  It still reports ``is_attributed`` so
    queries take the SNAS path, and any read of the rows (the blocks,
    ``attributes``, ``d``) raises instead of passing for a
    non-attributed graph.
    """

    def _raise(self, *_args):
        raise RuntimeError(
            "the attribute rows of this snapshot were not published to "
            "shared memory (pool workers answer from the TNAM factor); "
            "read them from the publishing process's graph"
        )

    __getitem__ = __iter__ = _raise


@dataclass
class AttributedGraph:
    """Undirected attributed graph backed by a CSR adjacency matrix.

    Parameters
    ----------
    adjacency:
        Symmetric ``n × n`` binary CSR matrix with an empty diagonal.
    attributes:
        Optional ``n × d`` dense attribute matrix.  Rows are L2-normalized
        on construction, matching the paper's assumption ``‖x(i)‖₂ = 1``.
        The rows are also exposed as :attr:`attribute_blocks`.  A snapshot
        made by :class:`~repro.graphs.store.GraphStore` holds only the
        blocks, several of them shared with the snapshot before it, and
        forms this contiguous matrix on its first read (then keeps it).
    communities:
        Optional length-``n`` integer array of ground-truth (primary)
        community ids.  The ground-truth local cluster ``Ys`` of a seed is
        the set of nodes sharing any of its communities (this mirrors how
        the paper derives ``Ys`` from subject areas / interest groups /
        product categories, which overlap).
    secondary_communities:
        Optional length-``n`` integer array of secondary memberships
        (``-1`` where absent).  Models overlapping ground truth.
    name:
        Human-readable dataset name used in reports.
    epoch:
        Version stamp of this snapshot.  Freshly constructed graphs are
        epoch 0; :class:`~repro.graphs.store.GraphStore` increments it
        on every applied delta.  Snapshots are immutable — an update
        produces a *new* graph at the next epoch, never mutates this one
        — so everything keyed on ``(graph, epoch)`` (serving caches,
        persisted models) stays consistent.
    """

    adjacency: sp.csr_matrix
    # No class-level default: a store-made snapshot leaves ``attributes``
    # unset until its first read, which ``__getattr__`` answers.
    attributes: np.ndarray | None = field(default_factory=lambda: None)
    communities: np.ndarray | None = None
    secondary_communities: np.ndarray | None = None
    name: str = "graph"
    epoch: int = 0
    _degrees: np.ndarray = field(init=False, repr=False)
    _inv_degrees: np.ndarray = field(init=False, repr=False)
    _binary_adjacency: bool = field(init=False, repr=False)
    _attribute_blocks: tuple[np.ndarray, ...] | None = field(
        init=False, repr=False
    )

    def __post_init__(self) -> None:
        adj = sp.csr_matrix(self.adjacency, dtype=np.float64)
        adj.setdiag(0.0)
        adj.eliminate_zeros()
        adj.sort_indices()
        if adj.shape[0] != adj.shape[1]:
            raise ValueError(f"adjacency must be square, got {adj.shape}")
        if (abs(adj - adj.T) > 1e-12).nnz != 0:
            raise ValueError("adjacency must be symmetric (undirected graph)")
        self.adjacency = adj
        self._degrees = np.asarray(adj.sum(axis=1)).ravel()
        if np.any(self._degrees == 0):
            _raise_isolated(self._degrees)
        self._inv_degrees = 1.0 / self._degrees
        self._binary_adjacency = bool(np.all(adj.data == 1.0))
        self._attribute_blocks = None
        if self.attributes is not None:
            attrs = normalize_rows(self.attributes)
            if attrs.shape[0] != adj.shape[0]:
                raise ValueError(
                    f"attribute matrix has {attrs.shape[0]} rows for "
                    f"{adj.shape[0]} nodes"
                )
            self.attributes = attrs
            self._attribute_blocks = row_blocks(attrs)
        if self.communities is not None:
            communities = np.asarray(self.communities, dtype=np.int64)
            if communities.shape != (adj.shape[0],):
                raise ValueError("communities must be a length-n vector")
            self.communities = communities
        if self.secondary_communities is not None:
            if self.communities is None:
                raise ValueError(
                    "secondary_communities requires primary communities"
                )
            secondary = np.asarray(self.secondary_communities, dtype=np.int64)
            if secondary.shape != (adj.shape[0],):
                raise ValueError("secondary_communities must be length-n")
            self.secondary_communities = secondary

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    def __getattr__(self, name: str):
        # Reached only when normal lookup fails: ``attributes`` of a
        # store-made snapshot that nobody has read yet.  Threads racing
        # here form equal matrices, and either one may be kept.
        if name != "attributes" or "_attribute_blocks" not in self.__dict__:
            raise AttributeError(name)
        self.attributes = np.concatenate(self._attribute_blocks)
        return self.attributes

    @property
    def n(self) -> int:
        """Number of nodes."""
        return self.adjacency.shape[0]

    @property
    def m(self) -> int:
        """Number of undirected edges."""
        return self.adjacency.nnz // 2

    @property
    def d(self) -> int:
        """Number of distinct attributes (0 when non-attributed)."""
        blocks = self._attribute_blocks
        return 0 if blocks is None else blocks[0].shape[1]

    @property
    def degrees(self) -> np.ndarray:
        """Length-``n`` float array of node degrees."""
        return self._degrees

    @property
    def inv_degrees(self) -> np.ndarray:
        """Precomputed ``1 / degrees`` (one division at construction).

        Consumers that need the reciprocal (the exact solver's ``D^{-1}``,
        analysis code) should use this instead of re-dividing per call.
        The diffusion kernels themselves deliberately keep true division
        ``x / d`` in their arithmetic: ``x * (1/d)`` differs from ``x / d``
        by up to 1 ulp, and the frontier engines promise bitwise-identical
        outputs against the pre-frontier reference kernels.
        """
        return self._inv_degrees

    @property
    def is_attributed(self) -> bool:
        return self._attribute_blocks is not None

    @property
    def attribute_blocks(self) -> tuple[np.ndarray, ...] | None:
        """The attribute rows as consecutive ``ATTRIBUTE_BLOCK_ROWS``-row
        blocks (None when non-attributed).

        Reading them never forms the contiguous :attr:`attributes`
        matrix; the query, refresh and publish paths read only these.
        """
        return self._attribute_blocks

    def degree(self, node: int) -> float:
        return float(self._degrees[node])

    def neighbors(self, node: int) -> np.ndarray:
        """Indices of the neighbors of ``node`` (sorted)."""
        adj = self.adjacency
        return adj.indices[adj.indptr[node] : adj.indptr[node + 1]]

    def volume(self, nodes: np.ndarray | list[int] | None = None) -> float:
        """Volume of a node set: ``vol(C) = Σ_{v∈C} d(v)`` (Table I).

        With ``nodes=None`` returns the volume of the whole graph (``2m``).
        """
        if nodes is None:
            return float(self._degrees.sum())
        nodes = np.asarray(nodes, dtype=np.int64)
        return float(self._degrees[nodes].sum())

    def vector_volume(self, vector: np.ndarray) -> float:
        """``vol(x) = Σ_{i ∈ supp(x)} d(vi)`` for a length-n vector."""
        support = np.flatnonzero(vector)
        return float(self._degrees[support].sum())

    # ------------------------------------------------------------------
    # Diffusion operators
    # ------------------------------------------------------------------
    def apply_transition(self, row_vector: np.ndarray) -> np.ndarray:
        """Compute ``x P`` for a row vector ``x`` where ``P = D^{-1} A``.

        ``(x P)_j = Σ_i x_i / d(vi) · A_ij``; because ``A`` is symmetric this
        equals ``A (x / d)`` which is a single sparse mat-vec.

        The division is kept (rather than multiplying by
        :attr:`inv_degrees`) so outputs stay bitwise identical to the
        reference kernels.
        """
        return self.adjacency.dot(row_vector / self._degrees)

    def transition_gather(
        self, row_values: np.ndarray, support: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Raw CSR gather for a selective ``x P``: one entry per edge.

        ``row_values`` is aligned with ``support`` (``row_values[p]`` is
        the mass on node ``support[p]``).  Returns ``(cols, contrib)``
        where ``cols`` concatenates the neighbor lists of ``support``
        (row-major, each row in CSR column order) and
        ``contrib[e] = row_values[p] / d(v_support[p]) · A_ij`` for edge
        ``e = (support[p], j)``.  Summing ``contrib`` per column in this
        order reproduces the per-row loop scatter bit for bit; the work
        is ``O(vol(support))`` with no length-``n`` touch at all.

        ``support`` must be sorted ascending (the order every scan-based
        kernel enumerates rows in).
        """
        adj = self.adjacency
        indptr, indices = adj.indptr, adj.indices
        starts = indptr[support]
        lens = indptr[support + 1] - starts
        total = int(lens.sum())
        if total == 0:
            return np.empty(0, dtype=indices.dtype), np.empty(0)
        # Row-major positions of every CSR entry in the support rows.
        offsets = np.cumsum(lens) - lens
        pos = np.arange(total) - np.repeat(offsets, lens) + np.repeat(starts, lens)
        cols = indices[pos]
        scaled = row_values / self._degrees[support]
        contrib = np.repeat(scaled, lens)
        if not self._binary_adjacency:
            contrib = contrib * adj.data[pos]
        return cols, contrib

    # ------------------------------------------------------------------
    # Ground truth helpers
    # ------------------------------------------------------------------
    def _membership_sets(self, seed: int) -> set[int]:
        memberships = {int(self.communities[seed])}
        if self.secondary_communities is not None:
            secondary = int(self.secondary_communities[seed])
            if secondary >= 0:
                memberships.add(secondary)
        return memberships

    def ground_truth_cluster(self, seed: int) -> np.ndarray:
        """Return ``Ys``: nodes sharing any community with the seed.

        With overlapping memberships this is the union of the seed's
        communities, matching the paper's subject-area / interest-group
        ground truth where nodes belong to several groups.
        """
        if self.communities is None:
            raise ValueError(f"graph {self.name!r} has no ground-truth communities")
        memberships = self._membership_sets(seed)
        mask = np.isin(self.communities, list(memberships))
        if self.secondary_communities is not None:
            mask |= np.isin(self.secondary_communities, list(memberships))
        return np.flatnonzero(mask)

    def average_ground_truth_size(self, sample: int = 512) -> float:
        """``|Ys|`` averaged over (a sample of) nodes (Table III column)."""
        if self.communities is None:
            raise ValueError("graph has no ground-truth communities")
        nodes = np.arange(self.n)
        if self.n > sample:
            rng = np.random.default_rng(0)
            nodes = rng.choice(self.n, size=sample, replace=False)
        sizes = [self.ground_truth_cluster(int(node)).shape[0] for node in nodes]
        return float(np.mean(sizes))

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def edge_list(self) -> np.ndarray:
        """The ``(m, 2)`` undirected edge list with ``u < v`` per row.

        Round-trips through :meth:`from_edges`:
        ``AttributedGraph.from_edges(g.n, g.edge_list(), ...)`` rebuilds
        an identical adjacency.  Used by benchmarks to measure the
        full-rebuild cold path the incremental store replaces.
        """
        coo = self.adjacency.tocoo()
        upper = coo.row < coo.col
        return np.stack([coo.row[upper], coo.col[upper]], axis=1).astype(np.int64)

    def to_networkx(self):
        """Export to a :mod:`networkx` graph (attributes as node data)."""
        import networkx as nx

        graph = nx.from_scipy_sparse_array(self.adjacency)
        if self.attributes is not None:
            for i in range(self.n):
                graph.nodes[i]["attributes"] = self.attributes[i]
        if self.communities is not None:
            for i in range(self.n):
                graph.nodes[i]["community"] = int(self.communities[i])
        return graph

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: np.ndarray | list[tuple[int, int]],
        attributes: np.ndarray | None = None,
        communities: np.ndarray | None = None,
        secondary_communities: np.ndarray | None = None,
        name: str = "graph",
    ) -> "AttributedGraph":
        """Build a graph from an edge list (duplicates and loops dropped)."""
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        mask = edges[:, 0] != edges[:, 1]
        edges = edges[mask]
        rows = np.concatenate([edges[:, 0], edges[:, 1]])
        cols = np.concatenate([edges[:, 1], edges[:, 0]])
        data = np.ones(rows.shape[0])
        adj = sp.csr_matrix((data, (rows, cols)), shape=(n, n))
        adj.data[:] = 1.0  # collapse duplicate edges
        return cls(
            adjacency=adj,
            attributes=attributes,
            communities=communities,
            secondary_communities=secondary_communities,
            name=name,
        )

    @classmethod
    def _from_parts(
        cls,
        *,
        adjacency: sp.csr_matrix,
        degrees: np.ndarray,
        inv_degrees: np.ndarray,
        binary_adjacency: bool,
        attributes: np.ndarray | None,
        communities: np.ndarray | None,
        secondary_communities: np.ndarray | None,
        name: str,
        epoch: int,
        attribute_blocks: tuple[np.ndarray, ...] | None = None,
        attributed: bool = False,
    ) -> "AttributedGraph":
        """Assemble a snapshot from already-validated parts.

        Package-internal constructor used by the incremental update path
        (:class:`~repro.graphs.store.GraphStore`): it skips
        ``__post_init__`` entirely, so degrees/``inv_degrees`` maintained
        incrementally are used as-is instead of being recomputed, the
        O(nnz) symmetry check is not re-paid per delta, and — crucially —
        already-normalized attribute rows are *not* normalized a second
        time (renormalizing an L2-unit row perturbs its bits, which would
        break the bitwise parity the store guarantees against a
        from-scratch build).  Every invariant ``__post_init__`` enforces
        must hold for the supplied parts.

        Given ``attribute_blocks`` (row blocks as :func:`row_blocks`
        cuts them) without ``attributes``, the contiguous matrix is
        formed on first read; given ``attributes`` alone, the blocks
        are views of it.  ``attributed=True`` with neither makes an
        attributed graph without rows (a shared-memory attach): it
        reports ``is_attributed``, and reading its rows raises.
        """
        graph = object.__new__(cls)
        graph.adjacency = adjacency
        if attribute_blocks is None and attributes is not None:
            attribute_blocks = row_blocks(attributes)
        if attribute_blocks is None and attributed:
            attribute_blocks = _UnpublishedRows()
        graph._attribute_blocks = attribute_blocks
        if attributes is not None or attribute_blocks is None:
            graph.attributes = attributes
        graph.communities = communities
        graph.secondary_communities = secondary_communities
        graph.name = name
        graph.epoch = int(epoch)
        graph._degrees = degrees
        graph._inv_degrees = inv_degrees
        graph._binary_adjacency = binary_adjacency
        return graph

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AttributedGraph(name={self.name!r}, n={self.n}, m={self.m}, "
            f"d={self.d}, communities={self.communities is not None}, "
            f"epoch={self.epoch})"
        )
