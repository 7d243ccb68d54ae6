"""Versioned graph store: immutable snapshots + incremental deltas.

Everything in the pipeline consumes an :class:`~repro.graphs.graph
.AttributedGraph`, which PRs 0-3 treated as frozen at fit time: one
inserted edge meant rebuilding the CSR from the full edge list,
re-normalizing every attribute row, and refitting the model.  This
module makes the graph *evolvable* without giving up the immutability
the serving layer depends on:

- :class:`GraphDelta` batches one update: edge insertions/deletions,
  appended nodes (with their attribute rows / community labels), and
  in-place attribute row updates.
- :class:`GraphStore` owns the current head snapshot and
  :meth:`GraphStore.apply`-es deltas, producing the *next* epoch-stamped
  snapshot.  Old snapshots stay valid — queries in flight keep the graph
  they started on.

The merge is incremental: small deltas splice the touched rows into the
existing CSR index array (``O(nnz)`` memcpy, no sort, no re-validation),
while deltas past :attr:`GraphStore.patch_limit` directed entries are
compacted through a fresh coordinate build.  Degrees and
``inv_degrees`` are maintained by adjusting only the touched entries,
and untouched attribute rows are carried over verbatim — the store
guarantees every snapshot is **bitwise identical** (adjacency, degrees,
attributes) to ``AttributedGraph.from_edges`` called on the final edge
set, which the parity suite pins.

Epoch bookkeeping for the layers above: the store keeps a bounded log
of which attribute rows each delta rewrote, so
:meth:`attribute_rows_since` lets a fitted model
(:meth:`repro.core.pipeline.LACA.refresh`) update exactly the TNAM rows
a delta could have affected.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .graph import AttributedGraph, _raise_isolated, normalize_rows
from .wal import GraphWAL, WalCorruption, read_wal_records

__all__ = ["GraphDelta", "GraphStore"]

_EMPTY_EDGES = np.empty((0, 2), dtype=np.int64)
_EMPTY_NODES = np.empty(0, dtype=np.int64)


def _canonical_pairs(edges, what: str) -> np.ndarray:
    """Undirected edge list as unique ``(min, max)`` pairs, loops dropped."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if edges.size == 0:
        return _EMPTY_EDGES
    if edges.min() < 0:
        raise ValueError(f"{what} contains a negative node id")
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    keep = lo != hi
    if not keep.all() and what == "remove_edges":
        raise ValueError("remove_edges contains a self-loop; loops never exist")
    pairs = np.unique(np.stack([lo[keep], hi[keep]], axis=1), axis=0)
    return pairs if pairs.size else _EMPTY_EDGES


def _directed(pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both directions of undirected pairs, sorted by (row, col)."""
    rows = np.concatenate([pairs[:, 0], pairs[:, 1]])
    cols = np.concatenate([pairs[:, 1], pairs[:, 0]])
    order = np.lexsort((cols, rows))
    return rows[order], cols[order]


@dataclass(frozen=True)
class GraphDelta:
    """One batched update against a specific snapshot.

    Parameters
    ----------
    add_edges / remove_edges:
        ``(k, 2)`` undirected edge lists.  Duplicates and self-loops in
        ``add_edges`` are dropped (matching ``from_edges`` semantics);
        adding an edge that already exists is a no-op, while removing an
        edge the graph does not have is an error (it almost always means
        the caller's view of the graph is stale).
    add_nodes:
        Number of nodes appended at the end of the id range.  Appended
        nodes must be connected by ``add_edges`` in the *same* delta —
        isolated nodes are rejected, as everywhere else.
    add_attributes:
        ``(add_nodes, d)`` raw attribute rows for the appended nodes
        (required iff the graph is attributed).  Rows are L2-normalized
        on apply, exactly once, like construction does.
    add_communities:
        Ground-truth labels for appended nodes (required iff the graph
        carries communities).
    set_attributes:
        ``(nodes, rows)`` pair updating the attribute rows of *existing*
        nodes in place (rows are re-normalized on apply).
    """

    add_edges: np.ndarray = field(default_factory=lambda: _EMPTY_EDGES)
    remove_edges: np.ndarray = field(default_factory=lambda: _EMPTY_EDGES)
    add_nodes: int = 0
    add_attributes: np.ndarray | None = None
    add_communities: np.ndarray | None = None
    set_attributes: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "add_edges", _canonical_pairs(self.add_edges, "add_edges")
        )
        object.__setattr__(
            self, "remove_edges", _canonical_pairs(self.remove_edges, "remove_edges")
        )
        if self.add_edges.size and self.remove_edges.size:
            base = int(max(self.add_edges.max(), self.remove_edges.max())) + 1
            both = np.intersect1d(
                self.add_edges[:, 0] * base + self.add_edges[:, 1],
                self.remove_edges[:, 0] * base + self.remove_edges[:, 1],
            )
            if both.size:
                raise ValueError(
                    "delta adds and removes the same edge; split it into "
                    "two deltas if the order matters"
                )
        add_nodes = int(self.add_nodes)
        if add_nodes < 0:
            raise ValueError(f"add_nodes must be >= 0, got {add_nodes}")
        object.__setattr__(self, "add_nodes", add_nodes)
        if self.add_attributes is not None:
            attrs = np.asarray(self.add_attributes, dtype=np.float64)
            attrs = attrs.reshape(add_nodes, -1)
            object.__setattr__(self, "add_attributes", attrs)
        if self.add_communities is not None:
            comms = np.asarray(self.add_communities, dtype=np.int64).ravel()
            if comms.shape[0] != add_nodes:
                raise ValueError(
                    f"add_communities has {comms.shape[0]} labels for "
                    f"{add_nodes} new node(s)"
                )
            object.__setattr__(self, "add_communities", comms)
        if self.set_attributes is not None:
            nodes, rows = self.set_attributes
            nodes = np.asarray(nodes, dtype=np.int64).ravel()
            rows = np.asarray(rows, dtype=np.float64).reshape(nodes.shape[0], -1)
            if np.unique(nodes).shape[0] != nodes.shape[0]:
                raise ValueError("set_attributes updates the same node twice")
            object.__setattr__(self, "set_attributes", (nodes, rows))

    # ------------------------------------------------------------------
    @classmethod
    def from_mapping(cls, payload: dict) -> "GraphDelta":
        """Build a delta from a plain mapping (the CLI's JSONL schema).

        Recognized keys: ``add_edges``, ``remove_edges``, ``add_nodes``,
        ``add_attributes``, ``add_communities``, ``set_attributes`` (a
        ``{"node_id": [row...]}`` object).  Unknown keys are rejected so
        schema typos fail loudly instead of silently dropping updates.
        """
        known = {
            "add_edges", "remove_edges", "add_nodes",
            "add_attributes", "add_communities", "set_attributes",
        }
        unknown = set(payload) - known
        if unknown:
            raise ValueError(
                f"unknown delta field(s) {sorted(unknown)}; expected a "
                f"subset of {sorted(known)}"
            )
        set_attrs = None
        if payload.get("set_attributes"):
            items = sorted(
                (int(node), row) for node, row in payload["set_attributes"].items()
            )
            set_attrs = (
                np.array([node for node, _ in items], dtype=np.int64),
                np.array([row for _, row in items], dtype=np.float64),
            )
        return cls(
            add_edges=payload.get("add_edges", _EMPTY_EDGES),
            remove_edges=payload.get("remove_edges", _EMPTY_EDGES),
            add_nodes=payload.get("add_nodes", 0),
            add_attributes=payload.get("add_attributes"),
            add_communities=payload.get("add_communities"),
            set_attributes=set_attrs,
        )

    def to_mapping(self) -> dict:
        """Serialize to the JSON-shaped mapping :meth:`from_mapping` reads.

        The inverse is exact: ids are integers, float rows serialize via
        ``repr`` (shortest round-trip form), so
        ``GraphDelta.from_mapping(delta.to_mapping())`` rebuilds a delta
        whose apply produces a bitwise-identical snapshot — the property
        the write-ahead log's crash recovery relies on.
        """
        payload: dict = {}
        if self.add_edges.size:
            payload["add_edges"] = self.add_edges.tolist()
        if self.remove_edges.size:
            payload["remove_edges"] = self.remove_edges.tolist()
        if self.add_nodes:
            payload["add_nodes"] = self.add_nodes
        if self.add_attributes is not None:
            payload["add_attributes"] = self.add_attributes.tolist()
        if self.add_communities is not None:
            payload["add_communities"] = self.add_communities.tolist()
        if self.set_attributes is not None:
            nodes, rows = self.set_attributes
            payload["set_attributes"] = {
                str(int(node)): row.tolist()
                for node, row in zip(nodes, rows)
            }
        return payload

    # ------------------------------------------------------------------
    @property
    def touches_structure(self) -> bool:
        return bool(self.add_edges.size or self.remove_edges.size or self.add_nodes)

    def touched_nodes(self, n: int) -> np.ndarray:
        """Sorted ids whose adjacency row, degree or attribute row the
        delta against an ``n``-node graph rewrites or appends."""
        parts = [self.add_edges.ravel(), self.remove_edges.ravel()]
        if self.set_attributes is not None:
            parts.append(self.set_attributes[0])
        if self.add_nodes:
            parts.append(np.arange(n, n + self.add_nodes, dtype=np.int64))
        touched = np.unique(np.concatenate(parts)) if parts else _EMPTY_NODES
        return touched.astype(np.int64, copy=False)

    def attribute_rows(self, n: int) -> np.ndarray:
        """Sorted attribute-row indices this delta rewrites or appends."""
        parts = []
        if self.set_attributes is not None:
            parts.append(self.set_attributes[0])
        if self.add_nodes:
            parts.append(np.arange(n, n + self.add_nodes, dtype=np.int64))
        if not parts:
            return _EMPTY_NODES
        return np.unique(np.concatenate(parts)).astype(np.int64, copy=False)

    # ------------------------------------------------------------------
    def validate_against(self, graph: AttributedGraph) -> None:
        """Check the delta is applicable to ``graph`` (raises otherwise)."""
        n, n_new = graph.n, graph.n + self.add_nodes
        if self.add_edges.size and self.add_edges.max() >= n_new:
            raise ValueError(
                f"add_edges references node {int(self.add_edges.max())} but the "
                f"updated graph has only {n_new} node(s)"
            )
        if self.remove_edges.size and self.remove_edges.max() >= n:
            raise ValueError(
                f"remove_edges references node {int(self.remove_edges.max())} "
                f"but the graph has only {n} node(s)"
            )
        if graph.attributes is None:
            if self.add_attributes is not None or self.set_attributes is not None:
                raise ValueError(
                    f"graph {graph.name!r} carries no attributes; the delta "
                    "cannot add or set attribute rows"
                )
        else:
            d = graph.attributes.shape[1]
            if self.add_nodes:
                if self.add_attributes is None:
                    raise ValueError(
                        f"appending nodes to attributed graph {graph.name!r} "
                        "requires add_attributes rows"
                    )
                if self.add_attributes.shape != (self.add_nodes, d):
                    raise ValueError(
                        f"add_attributes has shape {self.add_attributes.shape}, "
                        f"expected ({self.add_nodes}, {d})"
                    )
            if self.set_attributes is not None:
                nodes, rows = self.set_attributes
                if nodes.size and (nodes.min() < 0 or nodes.max() >= n):
                    raise ValueError(
                        "set_attributes targets a node outside the existing "
                        f"graph (n={n}); append new nodes via add_attributes"
                    )
                if rows.shape[1] != d:
                    raise ValueError(
                        f"set_attributes rows have {rows.shape[1]} columns, "
                        f"the graph has d={d}"
                    )
        if graph.communities is not None and self.add_nodes:
            if self.add_communities is None:
                raise ValueError(
                    f"graph {graph.name!r} carries ground-truth communities; "
                    "appended nodes need add_communities labels"
                )
        if graph.communities is None and self.add_communities is not None:
            raise ValueError(
                f"graph {graph.name!r} has no communities to extend"
            )


@dataclass(frozen=True)
class _LogEntry:
    epoch: int
    attribute_rows: np.ndarray


class GraphStore:
    """Thread-safe versioned owner of an evolving attributed graph.

    Parameters
    ----------
    graph:
        The initial head snapshot (any epoch; freshly built graphs are
        epoch 0).  Must have a binary adjacency — the incremental merge
        maintains unweighted edges only, like ``from_edges``.
    patch_limit:
        Largest number of *directed* delta entries merged via the CSR
        splice path; bigger deltas are compacted through a fresh
        coordinate build (cheaper than many large splices).  Both paths
        produce identical snapshots.
    history:
        How many applied deltas of attribute-row bookkeeping to retain
        for :meth:`attribute_rows_since`; callers further behind than
        this get ``None`` ("unknown — treat every row as rewritten").
    wal:
        Optional :class:`~repro.graphs.wal.GraphWAL`; when set, every
        delta is appended (and per the WAL's policy fsynced) *before*
        the splice, so any epoch the store exposed survives a crash.
        Use :meth:`recover` to replay an existing log.
    fault_plan:
        Optional :class:`~repro.testing.faults.FaultPlan` hooked at the
        ``store.commit`` site (between splice and head publication) for
        deterministic atomicity tests.
    """

    def __init__(
        self,
        graph: AttributedGraph,
        *,
        patch_limit: int = 4096,
        history: int = 64,
        wal: GraphWAL | None = None,
        fault_plan=None,
    ) -> None:
        if not graph._binary_adjacency:
            raise ValueError(
                "GraphStore requires a binary (unweighted) adjacency"
            )
        self.patch_limit = int(patch_limit)
        self.compactions = 0
        self._head = graph
        self._log: deque[_LogEntry] = deque(maxlen=max(int(history), 1))
        self._lock = threading.RLock()
        self._wal = wal
        self._fault_plan = fault_plan

    # ------------------------------------------------------------------
    @classmethod
    def recover(
        cls,
        graph: AttributedGraph,
        path,
        *,
        fsync: str = "always",
        fault_plan=None,
        patch_limit: int = 4096,
        history: int = 64,
    ) -> "GraphStore":
        """Rebuild a store from a base snapshot plus its write-ahead log.

        Replays every intact record in ``path`` whose epoch is ahead of
        ``graph.epoch``, in order, through the normal :meth:`apply`
        path — determinism makes the recovered head **bitwise equal** to
        the head the crashed process last committed.  A torn final
        record (crash mid-write: bad CRC or missing terminator) is
        truncated away; damage anywhere else raises
        :class:`~repro.graphs.wal.WalCorruption`.  The returned store
        has a live WAL attached at ``path``, so subsequent applies keep
        appending where the log left off.
        """
        store = cls(
            graph, patch_limit=patch_limit, history=history,
            fault_plan=fault_plan,
        )
        if os.path.exists(path):
            records, good_bytes, torn = read_wal_records(path)
            if torn:
                with open(path, "r+b") as handle:
                    handle.truncate(good_bytes)
            for index, record in enumerate(records):
                epoch = int(record.get("epoch", -1))
                if epoch <= graph.epoch:
                    continue  # predates the base snapshot
                if epoch != store._head.epoch + 1:
                    raise WalCorruption(
                        f"WAL record {index} advances to epoch {epoch} but "
                        f"the replayed head is at epoch {store._head.epoch}"
                    )
                store.apply(GraphDelta.from_mapping(record["delta"]))
        store._wal = GraphWAL(path, fsync=fsync, fault_plan=fault_plan)
        return store

    # ------------------------------------------------------------------
    @property
    def head(self) -> AttributedGraph:
        """The current snapshot (immutable; safe to hold across applies)."""
        with self._lock:
            return self._head

    @property
    def epoch(self) -> int:
        with self._lock:
            return self._head.epoch

    @property
    def wal(self) -> GraphWAL | None:
        """The attached write-ahead log, if durability is enabled."""
        return self._wal

    # ------------------------------------------------------------------
    def apply(self, delta: GraphDelta) -> AttributedGraph:
        """Apply ``delta`` atomically and return the new head snapshot.

        On any validation failure (out-of-range ids, removal of a
        missing edge, a deletion that would isolate a node, ...) the
        store is left exactly as it was — the head never moves to a
        half-applied state.  With a WAL attached the delta is appended
        (and per policy fsynced) before the splice; if the splice then
        fails the log is rolled back to its pre-append offset.
        """
        if not isinstance(delta, GraphDelta):
            raise TypeError(f"apply expects a GraphDelta, got {type(delta)!r}")
        with self._lock:
            graph = self._head
            delta.validate_against(graph)
            wal_offset = self._wal.tell() if self._wal is not None else None
            try:
                return self._apply_validated(graph, delta)
            except BaseException:
                if wal_offset is not None:
                    # Best-effort rollback.  If even the truncate fails,
                    # the orphan record replays a delta that validated
                    # cleanly — recovery stays consistent, just one
                    # epoch ahead of what this caller observed.
                    try:
                        self._wal.truncate_to(wal_offset)
                    except OSError:
                        pass
                raise

    def _apply_validated(
        self, graph: AttributedGraph, delta: GraphDelta
    ) -> AttributedGraph:
        """Splice ``delta`` (already validated) and publish the new head."""
        if self._wal is not None:
            self._wal.append(
                {"epoch": graph.epoch + 1, "delta": delta.to_mapping()}
            )
        n_old, n_new = graph.n, graph.n + delta.add_nodes

        if delta.touches_structure:
            directed_entries = 2 * (
                delta.add_edges.shape[0] + delta.remove_edges.shape[0]
            )
            if directed_entries > self.patch_limit:
                adjacency, delta_deg = _compact_merge(
                    graph.adjacency, n_new, delta.add_edges, delta.remove_edges
                )
                self.compactions += 1
            else:
                adjacency, delta_deg = _patch_merge(
                    graph.adjacency, n_new, delta.add_edges, delta.remove_edges
                )
            degrees = np.zeros(n_new)
            degrees[:n_old] = graph.degrees
            degrees += delta_deg
            if np.any(degrees == 0.0):
                _raise_isolated(degrees)
            inv_degrees = np.zeros(n_new)
            inv_degrees[:n_old] = graph.inv_degrees
            changed = np.flatnonzero(delta_deg != 0)
            inv_degrees[changed] = 1.0 / degrees[changed]
        else:
            # Attribute-only delta: structure (and its derived
            # arrays) are shared with the previous snapshot.
            adjacency = graph.adjacency
            degrees = graph.degrees
            inv_degrees = graph.inv_degrees

        attributes = graph.attributes
        if attributes is not None and (
            delta.add_nodes or delta.set_attributes is not None
        ):
            new_attrs = np.empty((n_new, attributes.shape[1]))
            new_attrs[:n_old] = attributes
            if delta.add_nodes:
                new_attrs[n_old:] = normalize_rows(delta.add_attributes)
            if delta.set_attributes is not None:
                nodes, rows = delta.set_attributes
                new_attrs[nodes] = normalize_rows(rows)
            attributes = new_attrs

        communities = graph.communities
        if communities is not None and delta.add_nodes:
            communities = np.concatenate([communities, delta.add_communities])
        secondary = graph.secondary_communities
        if secondary is not None and delta.add_nodes:
            secondary = np.concatenate(
                [secondary, np.full(delta.add_nodes, -1, dtype=np.int64)]
            )

        head = AttributedGraph._from_parts(
            adjacency=adjacency,
            degrees=degrees,
            inv_degrees=inv_degrees,
            binary_adjacency=True,
            attributes=attributes,
            communities=communities,
            secondary_communities=secondary,
            name=graph.name,
            epoch=graph.epoch + 1,
        )
        if self._fault_plan is not None:
            self._fault_plan.check("store.commit", epoch=head.epoch)
        self._log.append(
            _LogEntry(
                epoch=head.epoch,
                attribute_rows=(
                    delta.attribute_rows(n_old)
                    if graph.attributes is not None
                    else _EMPTY_NODES
                ),
            )
        )
        self._head = head
        return head

    # ------------------------------------------------------------------
    def _entries_since(self, epoch: int) -> list[_LogEntry] | None:
        head_epoch = self._head.epoch
        if epoch > head_epoch:
            raise ValueError(
                f"epoch {epoch} is ahead of the store head (epoch {head_epoch})"
            )
        if epoch == head_epoch:
            return []
        entries = [entry for entry in self._log if entry.epoch > epoch]
        if len(entries) != head_epoch - epoch:
            return None  # bookkeeping evicted: caller must assume everything
        return entries

    def attribute_rows_since(self, epoch: int) -> np.ndarray | None:
        """Union of attribute rows rewritten after ``epoch`` (None=unknown)."""
        with self._lock:
            entries = self._entries_since(epoch)
        if entries is None:
            return None
        if not entries:
            return _EMPTY_NODES
        return np.unique(
            np.concatenate([entry.attribute_rows for entry in entries])
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        head = self.head
        return (
            f"GraphStore(name={head.name!r}, n={head.n}, m={head.m}, "
            f"epoch={head.epoch})"
        )


# ----------------------------------------------------------------------
# CSR merge kernels
# ----------------------------------------------------------------------
def _patch_merge(
    adj: sp.csr_matrix,
    n_new: int,
    add_pairs: np.ndarray,
    remove_pairs: np.ndarray,
) -> tuple[sp.csr_matrix, np.ndarray]:
    """Splice a small delta into an existing CSR.

    Removals mark their positions dead via per-row binary search;
    additions are spliced into the kept index array with one
    ``np.insert``.  Cost is ``O(nnz)`` memcpy plus ``O(delta · log
    max_degree)`` searches — no global sort, no symmetry re-check.
    Returns the merged matrix and the per-node signed degree change.
    """
    indptr, indices = adj.indptr, adj.indices
    n_old = adj.shape[0]
    delta_deg = np.zeros(n_new, dtype=np.int64)

    keep = np.ones(indices.shape[0], dtype=bool)
    if remove_pairs.size:
        rem_rows, rem_cols = _directed(remove_pairs)
        for r, c in zip(rem_rows, rem_cols):
            lo, hi = indptr[r], indptr[r + 1]
            pos = lo + np.searchsorted(indices[lo:hi], c)
            if pos >= hi or indices[pos] != c:
                raise ValueError(
                    f"cannot remove edge ({int(r)}, {int(c)}): "
                    "not present in the graph"
                )
            keep[pos] = False
        delta_deg -= np.bincount(rem_rows, minlength=n_new)
        kept = indices[keep]
    else:
        kept = indices.copy()

    row_len = np.zeros(n_new, dtype=np.int64)
    row_len[:n_old] = np.diff(indptr)
    row_len += delta_deg  # removals so far
    kept_starts = np.concatenate([[0], np.cumsum(row_len)])

    if add_pairs.size:
        add_rows, add_cols = _directed(add_pairs)
        ins_pos: list[int] = []
        ins_cols: list[int] = []
        ins_rows: list[int] = []
        for r, c in zip(add_rows, add_cols):
            lo, hi = kept_starts[r], kept_starts[r + 1]
            pos = lo + np.searchsorted(kept[lo:hi], c)
            if pos < hi and kept[pos] == c:
                continue  # already present: adding is a no-op
            ins_pos.append(int(pos))
            ins_cols.append(int(c))
            ins_rows.append(int(r))
        if ins_pos:
            kept = np.insert(kept, ins_pos, ins_cols)
            inserted = np.bincount(
                np.asarray(ins_rows, dtype=np.int64), minlength=n_new
            )
            row_len += inserted
            delta_deg += inserted

    new_indptr = np.concatenate([[0], np.cumsum(row_len)])
    data = np.ones(kept.shape[0])
    merged = sp.csr_matrix((data, kept, new_indptr), shape=(n_new, n_new))
    return merged, delta_deg


def _compact_merge(
    adj: sp.csr_matrix,
    n_new: int,
    add_pairs: np.ndarray,
    remove_pairs: np.ndarray,
) -> tuple[sp.csr_matrix, np.ndarray]:
    """Rebuild the CSR from merged coordinates (the large-delta path)."""
    coo = adj.tocoo()
    rows_old = coo.row.astype(np.int64)
    cols_old = coo.col.astype(np.int64)
    codes_old = rows_old * n_new + cols_old
    delta_deg = np.zeros(n_new, dtype=np.int64)

    keep = np.ones(codes_old.shape[0], dtype=bool)
    if remove_pairs.size:
        rem_rows, rem_cols = _directed(remove_pairs)
        rem_codes = rem_rows * n_new + rem_cols
        present = np.isin(rem_codes, codes_old)
        if not present.all():
            missing = int(np.flatnonzero(~present)[0])
            raise ValueError(
                f"cannot remove edge ({int(rem_rows[missing])}, "
                f"{int(rem_cols[missing])}): not present in the graph"
            )
        keep = ~np.isin(codes_old, rem_codes)
        delta_deg -= np.bincount(rem_rows, minlength=n_new)

    parts_rows = [rows_old[keep]]
    parts_cols = [cols_old[keep]]
    if add_pairs.size:
        add_rows, add_cols = _directed(add_pairs)
        fresh = ~np.isin(add_rows * n_new + add_cols, codes_old)
        add_rows, add_cols = add_rows[fresh], add_cols[fresh]
        if add_rows.size:
            parts_rows.append(add_rows)
            parts_cols.append(add_cols)
            delta_deg += np.bincount(add_rows, minlength=n_new)

    rows = np.concatenate(parts_rows)
    cols = np.concatenate(parts_cols)
    merged = sp.csr_matrix(
        (np.ones(rows.shape[0]), (rows, cols)), shape=(n_new, n_new)
    )
    merged.sort_indices()
    return merged, delta_deg
