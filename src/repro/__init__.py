"""repro — reproduction of "Adaptive Local Clustering over Attributed
Graphs" (LACA, ICDE 2025).

Quickstart::

    from repro import LACA, load_dataset

    graph = load_dataset("cora")
    model = LACA(metric="cosine").fit(graph)
    cluster = model.cluster(seed=0, size=120)

Subpackages
-----------
``repro.graphs``
    Attributed graph substrate, synthetic datasets, serialization.
``repro.attributes``
    SNAS metrics, randomized k-SVD, orthogonal random features, TNAM.
``repro.diffusion``
    Greedy / non-greedy / adaptive / push RWR diffusion + exact oracle.
``repro.core``
    BDD, the LACA algorithm (Algo 4), and the pipeline API.
``repro.baselines``
    The 17 competitor methods of the paper's evaluation.
``repro.cluster``
    k-means, spectral clustering, DBSCAN substrate (no sklearn).
``repro.eval``
    Metrics, experiment harness, reporting.
``repro.serving``
    Model persistence, micro-batching query scheduler, result cache.
``repro.experiments``
    One driver per paper table/figure (see DESIGN.md §4).
"""

from .graphs import (
    AttributedGraph,
    GraphDelta,
    GraphStore,
    load_dataset,
    dataset_names,
)
from .attributes import build_tnam, snas_matrix, TNAM
from .diffusion import (
    adaptive_diffuse,
    batch_diffuse,
    exact_diffusion,
    exact_rwr,
    greedy_diffuse,
    nongreedy_diffuse,
    push_diffuse,
)
from .core import (
    LACA,
    LacaConfig,
    exact_bdd,
    laca_scores,
    laca_scores_batch,
    top_k_cluster,
)
from .baselines import make_method, method_names
from .eval import evaluate_method, precision, recall, conductance, wcss, sample_seeds
from .serving import ClusterService, load_model, save_model

__version__ = "1.0.0"

__all__ = [
    "AttributedGraph",
    "GraphDelta",
    "GraphStore",
    "load_dataset",
    "dataset_names",
    "build_tnam",
    "snas_matrix",
    "TNAM",
    "adaptive_diffuse",
    "batch_diffuse",
    "exact_diffusion",
    "exact_rwr",
    "greedy_diffuse",
    "nongreedy_diffuse",
    "push_diffuse",
    "LACA",
    "LacaConfig",
    "exact_bdd",
    "laca_scores",
    "laca_scores_batch",
    "top_k_cluster",
    "make_method",
    "method_names",
    "evaluate_method",
    "precision",
    "recall",
    "conductance",
    "wcss",
    "sample_seeds",
    "ClusterService",
    "load_model",
    "save_model",
]
