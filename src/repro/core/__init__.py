"""The paper's primary contribution: BDD and the LACA algorithm."""

from .bdd import (
    ALTERNATIVE_VARIANTS,
    alternative_bdd,
    exact_bdd,
    exact_bdd_via_transform,
)
from .config import LacaConfig
from .laca import (
    LacaResult,
    extract_cluster,
    laca_scores,
    laca_scores_batch,
    top_k_cluster,
)
from .pipeline import LACA
from .sweep import SweepResult, sweep_cut
from .gnn import bdd_from_embeddings, denoising_objective, smoothed_embeddings
from .cosimrank import cosimrank_single_source, identity_bdd

__all__ = [
    "ALTERNATIVE_VARIANTS",
    "alternative_bdd",
    "exact_bdd",
    "exact_bdd_via_transform",
    "LacaConfig",
    "LacaResult",
    "extract_cluster",
    "laca_scores",
    "laca_scores_batch",
    "top_k_cluster",
    "LACA",
    "SweepResult",
    "sweep_cut",
    "bdd_from_embeddings",
    "denoising_objective",
    "smoothed_embeddings",
    "cosimrank_single_source",
    "identity_bdd",
]
