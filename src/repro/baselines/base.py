"""Common interface for all local-clustering methods under evaluation.

The paper's protocol (Section VI-A) is uniform: every method produces a
score for each node w.r.t. the seed; the predicted local cluster is the
top-``|Ys|`` nodes.  :class:`LocalClusteringMethod` captures that protocol
— a ``fit`` preprocessing stage (timed separately, as in Fig. 7) and a
per-seed ``score_vector``.  Methods whose extraction is not a ranking
(e.g. DBSCAN over embeddings) override :meth:`cluster` instead.
"""

from __future__ import annotations

import abc

import numpy as np

from ..core.laca import top_k_cluster
from ..graphs.graph import AttributedGraph

__all__ = ["LocalClusteringMethod"]


class LocalClusteringMethod(abc.ABC):
    """Base class: fit once per graph, query many seeds."""

    #: Display name used in tables (subclasses override).
    name: str = "method"
    #: One of: "lgc", "link", "attr", "embedding", "ours".
    category: str = "lgc"
    #: Whether the method can run on graphs without attributes.
    supports_non_attributed: bool = True
    #: Whether the method *requires* attributes to be meaningful.
    requires_attributes: bool = False

    def __init__(self) -> None:
        self.graph: AttributedGraph | None = None

    # ------------------------------------------------------------------
    def fit(self, graph: AttributedGraph) -> "LocalClusteringMethod":
        """Preprocessing stage; default records the graph only."""
        if self.requires_attributes and graph.attributes is None:
            raise ValueError(f"{self.name} requires node attributes")
        self.graph = graph
        self._fit(graph)
        return self

    def _fit(self, graph: AttributedGraph) -> None:
        """Subclass hook for preprocessing work."""

    def _require_fit(self) -> AttributedGraph:
        if self.graph is None:
            raise RuntimeError(f"{self.name}: call fit(graph) before querying")
        return self.graph

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def score_vector(self, seed: int) -> np.ndarray:
        """Length-n affinity scores of every node w.r.t. ``seed``."""

    def cluster(self, seed: int, size: int) -> np.ndarray:
        """Predicted local cluster of ``size`` nodes around ``seed``."""
        scores = self.score_vector(seed)
        return top_k_cluster(scores, size, seed)

    def score_vector_batch(self, seeds) -> list[np.ndarray]:
        """Score vectors for many seeds; element ``b`` answers ``seeds[b]``.

        The default loops over :meth:`score_vector`; methods with a
        batched scoring path (LACA's block diffusion) override this so
        callers that need full score vectors — not just extracted
        clusters — still share each sparse mat-mat.
        """
        return [self.score_vector(int(seed)) for seed in seeds]

    def cluster_batch(self, seeds, sizes) -> list[np.ndarray]:
        """Answer many seed queries at once; element ``b`` is the cluster
        of ``seeds[b]`` at size ``sizes[b]``.

        The default loops over :meth:`cluster`; LACA overrides this with
        its routed block path (:meth:`~repro.core.pipeline.LACA.cluster_block`),
        which shares each sparse mat-mat once the queries saturate.
        """
        if len(seeds) != len(sizes):
            raise ValueError(
                f"got {len(seeds)} seeds but {len(sizes)} cluster sizes"
            )
        return [self.cluster(int(seed), int(size)) for seed, size in zip(seeds, sizes)]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"
