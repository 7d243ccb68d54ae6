"""High-level LACA pipeline: preprocessing + repeated online queries.

The paper splits LACA into a per-graph preprocessing stage (Algo 3: build
the TNAM once, reusable for every seed) and a per-seed online stage
(Algo 4).  :class:`LACA` packages both behind a small API:

    >>> from repro import LACA, load_dataset
    >>> graph = load_dataset("cora")
    >>> model = LACA(metric="cosine").fit(graph)
    >>> cluster = model.cluster(seed=0, size=120)

Many seed queries go through :meth:`LACA.cluster_many`, which answers
them one at a time while they stay local and stacks the rest of a block
into one ``n × B`` block diffusion (:meth:`LACA.scores_batch`, shared
sparse mat-mats instead of ``B`` traversals) once they saturate the graph.
The block diffusion is an execution strategy with one entry point,
:func:`~repro.diffusion.batch.batch_diffuse`, and returns one result per
seed.  Both paths return bitwise the same scores, hence the same clusters:

    >>> clusters = model.cluster_many([0, 17, 42], size=120)
    >>> results = model.scores_batch([0, 17, 42])  # one LacaResult per seed
    >>> results[2].cluster(120)  # == model.cluster(42, 120)
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from ..attributes.tnam import TNAM, build_tnam
from ..graphs.graph import AttributedGraph
from ..graphs.store import GraphStore
from .config import LacaConfig
from .laca import LacaResult, laca_scores, laca_scores_batch, top_k_cluster
from .routing import route_block

__all__ = ["LACA"]

#: Fit-state schema version, bumped on incompatible layout changes.
FIT_STATE_VERSION = 1


class LACA:
    """Local clustering over attributed graphs (the paper's method).

    Parameters mirror :class:`~repro.core.config.LacaConfig`; keyword
    arguments are forwarded to it, so ``LACA(metric="exp_cosine")`` builds
    LACA (E) and ``LACA(use_snas=False)`` the attribute-free ablation.
    """

    def __init__(self, config: LacaConfig | None = None, **overrides) -> None:
        base = config or LacaConfig()
        self.config = base.with_updates(**overrides) if overrides else base
        self.config.validate()
        self.graph: AttributedGraph | None = None
        self.tnam: TNAM | None = None
        self.preprocessing_seconds: float = 0.0
        self.refresh_seconds: float = 0.0

    # ------------------------------------------------------------------
    def fit(self, graph: AttributedGraph, rng: np.random.Generator | None = None) -> "LACA":
        """Preprocessing stage: build the TNAM (Algo 3) for ``graph``.

        On non-attributed graphs, or with ``use_snas=False``, there is
        nothing to precompute and fit only records the graph.
        """
        self.graph = graph
        self.tnam = None
        start = time.perf_counter()
        if self.config.use_snas and graph.is_attributed:
            self.tnam = build_tnam(
                graph.attribute_blocks,
                k=self.config.k,
                metric=self.config.metric,
                delta=self.config.delta,
                rng=rng or np.random.default_rng(0),
                use_svd=self.config.use_svd,
            )
        self.preprocessing_seconds = time.perf_counter() - start
        return self

    def _require_fit(self) -> AttributedGraph:
        if self.graph is None:
            raise RuntimeError("call fit(graph) before querying")
        return self.graph

    def refresh(self, store: GraphStore) -> "LACA":
        """Track the store's head snapshot without refitting from scratch.

        Structural deltas (edge insertions/deletions) leave the TNAM
        untouched — it depends only on attributes — so a refresh after
        them is O(1): swap the graph reference.  Attribute-touching
        deltas hand exactly the rewritten/appended rows to
        :meth:`TNAM.update_rows`, which on the cosine k-SVD path with a
        few hundred features or fewer recomputes only the Gram blocks
        holding those rows and reruns the ``d × d`` eigensolve and the
        projection; every other path, and a store whose bounded delta
        log no longer covers this model's epoch, pays a full Algo 3
        rebuild.  Either way the new TNAM is bitwise the one
        :meth:`fit` builds on the head snapshot.  Both read the
        snapshot's attribute row blocks, so neither forms its ``n × d``
        matrix on the cosine k-SVD path.

        Queries in flight on the old snapshot are unaffected: snapshots
        are immutable and the old graph object stays valid.  ``refresh``
        itself is not thread-safe against concurrent queries on *this*
        model — the serving layer serializes it behind its dispatcher.
        """
        graph = self._require_fit()
        head = store.head
        if head.epoch < graph.epoch:
            raise ValueError(
                f"model is at epoch {graph.epoch} but the store head is "
                f"behind it (epoch {head.epoch}); refresh only moves forward"
            )
        start = time.perf_counter()
        if (
            self.config.use_snas
            and head.is_attributed
            and head.epoch > graph.epoch
        ):
            rows = store.attribute_rows_since(graph.epoch)
            if self.tnam is None or rows is None:
                # No maintained state, or the delta log has forgotten
                # this model's epoch: rebuild from the head attributes.
                self.tnam = build_tnam(
                    head.attribute_blocks,
                    k=self.config.k,
                    metric=self.config.metric,
                    delta=self.config.delta,
                    rng=np.random.default_rng(0),
                    use_svd=self.config.use_svd,
                )
            elif rows.size:
                self.tnam = self.tnam.update_rows(
                    head.attribute_blocks, rows, use_svd=self.config.use_svd
                )
        self.graph = head
        self.refresh_seconds = time.perf_counter() - start
        return self

    # ------------------------------------------------------------------
    def make_workspace(self) -> None:  # kept only for perfbench's raw loop
        return None

    def scores(self, seed: int) -> LacaResult:
        """Online stage: approximate BDD vector ρ′ for ``seed`` (Algo 4)."""
        graph = self._require_fit()
        return laca_scores(graph, seed, config=self.config, tnam=self.tnam)

    def score_vector(self, seed: int) -> np.ndarray:
        """Plain ρ′ array (for harness integration)."""
        return self.scores(seed).scores

    def cluster(self, seed: int, size: int, workspace=None) -> np.ndarray:
        """Predicted local cluster: top-``size`` nodes of ρ′."""
        # ``workspace`` is accepted and ignored, kept only for perfbench's raw loop.
        result = self.scores(seed)
        return top_k_cluster(result.scores, size, seed, support=result.scores_support)

    def scores_batch(self, seeds) -> list[LacaResult]:
        """Answer many seed queries with one block diffusion (Algo 4 ×B).

        Element ``b`` of the result answers ``seeds[b]``, with scores
        bitwise those of :meth:`scores` for that seed; all seeds share a
        single sparse mat-mat per diffusion iteration instead of one
        traversal per seed.
        """
        graph = self._require_fit()
        return laca_scores_batch(graph, seeds, config=self.config, tnam=self.tnam)

    def cluster_block(self, seeds, sizes) -> list[np.ndarray]:
        """Clusters of one block of seeds, routed by the engines' kernels.

        Element ``b`` is the top-``sizes[b]`` cluster of ``seeds[b]``,
        bitwise :meth:`cluster`.  Seeds are answered one at a time on the
        sequential path while they stay local; once the block's kernel
        tally shows they saturate the graph
        (:func:`~repro.diffusion.base.block_diffusion_pays`), the
        remaining seeds share one :meth:`scores_batch` block diffusion.
        This is :func:`~repro.core.routing.route_block` on one thread, so
        every seed runs on the calling thread.
        """
        if len(seeds) != len(sizes):
            raise ValueError(f"got {len(seeds)} seeds but {len(sizes)} cluster sizes")
        clusters, _ = route_block(self, 1, seeds, sizes, LacaResult.cluster)
        return clusters

    def cluster_many(
        self, seeds, size: int | None = None, batch_size: int | None = None
    ) -> dict[int, np.ndarray]:
        """Batched queries sharing preprocessing and, once they saturate,
        diffusion mat-mats.

        Seeds are answered in blocks of up to ``batch_size`` through
        :meth:`cluster_block`: sequentially while the queries stay local,
        and the rest of a block through one :meth:`scores_batch` block
        diffusion once they saturate the graph.  Every cluster is bitwise
        :meth:`cluster`, whatever ``batch_size``.  ``size=None`` uses each
        seed's ground-truth cluster size (the paper's evaluation
        protocol); that requires the graph to carry communities.
        ``batch_size`` caps the block width (None answers all seeds in
        one block; ``1`` is the sequential per-seed path).
        """
        graph = self._require_fit()
        seeds = [int(seed) for seed in seeds]
        if batch_size is not None and batch_size < 1:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        sizes = [
            graph.ground_truth_cluster(seed).shape[0] if size is None else size
            for seed in seeds
        ]
        clusters: dict[int, np.ndarray] = {}
        step = batch_size or max(len(seeds), 1)
        for lo in range(0, len(seeds), step):
            chunk = seeds[lo : lo + step]
            answers = self.cluster_block(chunk, sizes[lo : lo + step])
            clusters.update(zip(chunk, answers))
        return clusters

    # ------------------------------------------------------------------
    def fit_state(self) -> dict[str, np.ndarray]:
        """Flat array mapping capturing everything :meth:`fit` computed.

        The mapping is ``np.savez``-ready (plain arrays, no pickle) and
        is the persistence contract used by :mod:`repro.serving`: config
        scalars under ``config_*`` keys, the TNAM factor ``Z`` and its
        scalars under ``tnam_*`` keys (absent when fit built none), plus
        provenance.  The graph itself is *not* included — graphs have
        their own archive format in :mod:`repro.graphs.io` and are
        typically shared by many models.  Neither are the TNAM's Gram
        blocks: they derive from the attributes, and a reloaded model
        rebuilds them on its first attribute delta, so its refreshes
        stay bitwise a fresh fit.
        """
        graph = self._require_fit()
        state: dict[str, np.ndarray] = {
            "format_version": np.asarray(FIT_STATE_VERSION),
            "graph_name": np.asarray(graph.name),
            "graph_n": np.asarray(graph.n),
            "graph_epoch": np.asarray(graph.epoch),
            "preprocessing_seconds": np.asarray(self.preprocessing_seconds),
        }
        for field in dataclasses.fields(self.config):
            state[f"config_{field.name}"] = np.asarray(
                getattr(self.config, field.name)
            )
        if self.tnam is not None:
            state["tnam_z"] = self.tnam.z
            state["tnam_metric"] = np.asarray(self.tnam.metric)
            state["tnam_k"] = np.asarray(self.tnam.k)
            state["tnam_delta"] = np.asarray(self.tnam.delta)
        return state

    @classmethod
    def from_fit_state(cls, state, graph: AttributedGraph) -> "LACA":
        """Rebuild a fitted model from :meth:`fit_state` output.

        ``state`` may be the dict itself or an open ``np.load`` archive.
        The reconstruction skips Algo 3 entirely — the stored TNAM is
        reattached as-is, so query results are bitwise identical to the
        original model's.  Archives written before the Gram blocks
        replaced them may also carry ``tnam_y``/``tnam_basis``; those
        keys are ignored.  ``graph`` must be the graph the state was
        fitted on (checked by node count and name, the cheap invariants
        we can verify without hashing the whole adjacency).
        """
        version = int(state["format_version"])
        if version != FIT_STATE_VERSION:
            raise ValueError(
                f"unsupported fit-state version {version} "
                f"(this build reads version {FIT_STATE_VERSION})"
            )
        stored_n = int(state["graph_n"])
        if stored_n != graph.n:
            raise ValueError(
                f"fit state was built on a graph with n={stored_n}, "
                f"got a graph with n={graph.n}"
            )
        stored_name = str(state["graph_name"])
        if stored_name != graph.name:
            raise ValueError(
                f"fit state was built on graph {stored_name!r}, "
                f"got graph {graph.name!r}"
            )
        if "graph_epoch" in state:  # absent on pre-store archives
            stored_epoch = int(state["graph_epoch"])
            if stored_epoch != graph.epoch:
                raise ValueError(
                    f"fit state was built at graph epoch {stored_epoch}, got "
                    f"a graph at epoch {graph.epoch}; load the matching "
                    "snapshot (or refit/refresh against the current one)"
                )
        overrides = {}
        for field in dataclasses.fields(LacaConfig):
            key = f"config_{field.name}"
            if key not in state:
                continue  # older states may predate newly added knobs
            raw = np.asarray(state[key])
            overrides[field.name] = raw.item()
        model = cls(LacaConfig(**overrides))
        model.graph = graph
        model.preprocessing_seconds = float(state["preprocessing_seconds"])
        if "tnam_z" in state:
            model.tnam = TNAM(
                z=np.asarray(state["tnam_z"], dtype=np.float64),
                metric=str(state["tnam_metric"]),
                k=int(state["tnam_k"]),
                delta=float(state["tnam_delta"]),
            )
        return model

    # ------------------------------------------------------------------
    def describe(self) -> str:
        """Short name used in experiment tables."""
        if not self.config.use_snas:
            return "LACA (w/o SNAS)"
        suffix = "C" if self.config.metric == "cosine" else "E"
        return f"LACA ({suffix})"
