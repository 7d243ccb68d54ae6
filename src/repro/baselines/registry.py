"""Registry mapping competitor names to constructors.

Provides the full 17-competitor line-up of the paper's Table IV/V (the
embedding methods appear once per extraction mode, as in Table V), plus
the three LACA variants, so experiment drivers can enumerate methods by
name or category.
"""

from __future__ import annotations

from typing import Callable

from ..core.config import LacaConfig
from ..core.pipeline import LACA
from .attr_similarity import AttriRank, SimAttr
from .base import LocalClusteringMethod
from .crd import CapacityReleasingDiffusion
from .embedding import Cfane, Node2Vec, Pane, Sage
from .flow import PNormFlowDiffusion, WeightedFlowDiffusion
from .hk_relax import HKRelax
from .link_similarity import AdamicAdar, CommonNeighbors, JaccardSimilarity, SimRank
from .pr_nibble import APRNibble, PRNibble

__all__ = [
    "METHOD_FACTORIES",
    "make_method",
    "method_names",
    "methods_in_category",
]


class _LacaAdapter(LocalClusteringMethod):
    """Wrap the LACA pipeline in the common baseline interface."""

    category = "ours"

    def __init__(self, config: LacaConfig | None = None, **overrides) -> None:
        super().__init__()
        self.model = LACA(config, **overrides)
        self.name = self.model.describe()
        self.requires_attributes = False
        self.supports_non_attributed = True

    def _fit(self, graph) -> None:
        self.model.fit(graph)

    def score_vector(self, seed: int):
        return self.model.score_vector(seed)

    def score_vector_batch(self, seeds):
        return [result.scores for result in self.model.scores_batch(seeds)]

    def cluster_batch(self, seeds, sizes):
        return self.model.cluster_block(seeds, sizes)


def _embedding_variants(cls, label: str) -> dict[str, Callable[[], LocalClusteringMethod]]:
    return {
        f"{label} (K-NN)": lambda cls=cls: cls(extraction="knn"),
        f"{label} (SC)": lambda cls=cls: cls(extraction="sc"),
        f"{label} (DBSCAN)": lambda cls=cls: cls(extraction="dbscan"),
    }


METHOD_FACTORIES: dict[str, Callable[[], LocalClusteringMethod]] = {
    # Group 1: local graph clustering.
    "PR-Nibble": PRNibble,
    "APR-Nibble": APRNibble,
    "HK-Relax": HKRelax,
    "CRD": CapacityReleasingDiffusion,
    "p-Norm FD": PNormFlowDiffusion,
    "WFD": WeightedFlowDiffusion,
    # Group 2: link similarity.
    "Jaccard": JaccardSimilarity,
    "Adamic-Adar": AdamicAdar,
    "Common-Nbrs": CommonNeighbors,
    "SimRank": SimRank,
    # Group 3: attribute similarity.
    "SimAttr (C)": lambda: SimAttr(metric="cosine"),
    "SimAttr (E)": lambda: SimAttr(metric="exp_cosine"),
    "AttriRank": AttriRank,
    # Group 4: network embedding (one entry per extraction mode).
    **_embedding_variants(Node2Vec, "Node2Vec"),
    **_embedding_variants(Sage, "SAGE"),
    **_embedding_variants(Pane, "PANE"),
    **_embedding_variants(Cfane, "CFANE"),
    # Ours.
    "LACA (C)": lambda: _LacaAdapter(metric="cosine"),
    "LACA (E)": lambda: _LacaAdapter(metric="exp_cosine"),
    "LACA (w/o SNAS)": lambda: _LacaAdapter(use_snas=False),
}


def make_method(name: str, **overrides) -> LocalClusteringMethod:
    """Instantiate a registered method by its table name."""
    if name not in METHOD_FACTORIES:
        raise KeyError(f"unknown method {name!r}; options: {sorted(METHOD_FACTORIES)}")
    factory = METHOD_FACTORIES[name]
    method = factory(**overrides) if overrides else factory()
    return method


def method_names() -> list[str]:
    return list(METHOD_FACTORIES)


def methods_in_category(category: str) -> list[str]:
    """Names whose instances report the given category."""
    names = []
    for name in METHOD_FACTORIES:
        if make_method(name).category == category:
            names.append(name)
    return names
