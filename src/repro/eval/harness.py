"""Experiment harness: seed sampling, timing, method evaluation, grids.

Implements the paper's protocol (Section VI-A): sample a set of seed
nodes, run each method so the predicted cluster has ``|Cs| = |Ys|``, and
average precision (and the Table VII quality metrics) over seeds, timing
the preprocessing and online stages separately (Fig. 7).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

import numpy as np

from ..baselines.base import LocalClusteringMethod
from ..baselines.registry import make_method
from ..graphs.graph import AttributedGraph
from .metrics import conductance, precision, recall, wcss

__all__ = [
    "MethodEvaluation",
    "latency_percentile",
    "sample_seeds",
    "evaluate_method",
    "evaluate_many",
    "grid_search",
]


def latency_percentile(seconds, q: float) -> float:
    """The ``q``-th percentile of a latency sample (0.0 when empty).

    Shared by the harness (per-seed online times) and the serving
    telemetry (per-request latencies) so both layers report identical
    p50/p95 definitions — linear interpolation between order statistics.
    """
    values = np.asarray(seconds, dtype=np.float64)
    if values.size == 0:
        return 0.0
    return float(np.percentile(values, q))


@dataclass
class MethodEvaluation:
    """Aggregated evaluation of one method on one graph."""

    method: str
    dataset: str
    precisions: list[float] = field(default_factory=list)
    recalls: list[float] = field(default_factory=list)
    conductances: list[float] = field(default_factory=list)
    wcss_values: list[float] = field(default_factory=list)
    online_seconds: list[float] = field(default_factory=list)
    preprocessing_seconds: float = 0.0

    @property
    def mean_precision(self) -> float:
        return float(np.mean(self.precisions)) if self.precisions else 0.0

    @property
    def mean_recall(self) -> float:
        return float(np.mean(self.recalls)) if self.recalls else 0.0

    @property
    def mean_conductance(self) -> float:
        return float(np.mean(self.conductances)) if self.conductances else 0.0

    @property
    def mean_wcss(self) -> float:
        return float(np.mean(self.wcss_values)) if self.wcss_values else 0.0

    @property
    def mean_online_seconds(self) -> float:
        return float(np.mean(self.online_seconds)) if self.online_seconds else 0.0

    @property
    def total_online_seconds(self) -> float:
        return float(np.sum(self.online_seconds)) if self.online_seconds else 0.0

    @property
    def p50_online_seconds(self) -> float:
        """Median per-seed online latency (matches serving telemetry)."""
        return latency_percentile(self.online_seconds, 50.0)

    @property
    def p95_online_seconds(self) -> float:
        """Tail per-seed online latency (matches serving telemetry)."""
        return latency_percentile(self.online_seconds, 95.0)

    @property
    def throughput_seeds_per_s(self) -> float:
        """Answered seed queries per second of online time (Fig. 7 axis).

        This is where batching shows up: batched evaluation divides each
        block's wall time evenly over its seeds, so the throughput
        reflects the shared-mat-mat speedup.
        """
        total = self.total_online_seconds
        return len(self.online_seconds) / total if total > 0.0 else 0.0

    def as_row(self) -> dict:
        return {
            "method": self.method,
            "dataset": self.dataset,
            "precision": round(self.mean_precision, 3),
            "recall": round(self.mean_recall, 3),
            "conductance": round(self.mean_conductance, 3),
            "wcss": round(self.mean_wcss, 3),
            "online_s": round(self.mean_online_seconds, 4),
            "p50_online_s": round(self.p50_online_seconds, 4),
            "p95_online_s": round(self.p95_online_seconds, 4),
            "preprocess_s": round(self.preprocessing_seconds, 4),
            "throughput_seeds_per_s": round(self.throughput_seeds_per_s, 1),
        }


def sample_seeds(
    graph: AttributedGraph, n_seeds: int, rng: np.random.Generator | None = None
) -> np.ndarray:
    """Uniformly sample distinct seed nodes (the paper samples 500)."""
    if rng is None:
        rng = np.random.default_rng(0)
    n_seeds = min(n_seeds, graph.n)
    return rng.choice(graph.n, size=n_seeds, replace=False)


def evaluate_method(
    graph: AttributedGraph,
    method: LocalClusteringMethod | str,
    seeds: np.ndarray,
    compute_quality: bool = False,
    batch_size: int | None = None,
) -> MethodEvaluation:
    """Fit ``method`` on ``graph`` and evaluate it over ``seeds``.

    ``compute_quality`` additionally records conductance and WCSS
    (Table VII); precision/recall are always recorded.  ``batch_size``
    answers seeds in blocks of that width through the method's
    ``cluster_batch`` (LACA's routed block path); each block's wall
    time is split evenly over its seeds so per-seed statistics stay
    comparable with the sequential protocol.
    """
    if isinstance(method, str):
        method = make_method(method)
    if batch_size is not None and batch_size < 1:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    start = time.perf_counter()
    method.fit(graph)
    preprocessing = time.perf_counter() - start
    # The LACA adapter times its own TNAM construction; prefer that.
    model = getattr(method, "model", None)
    if model is not None and hasattr(model, "preprocessing_seconds"):
        preprocessing = model.preprocessing_seconds

    evaluation = MethodEvaluation(
        method=method.name, dataset=graph.name, preprocessing_seconds=preprocessing
    )
    seeds = [int(seed) for seed in seeds]
    truths = {seed: graph.ground_truth_cluster(seed) for seed in seeds}

    def _record(seed: int, predicted: np.ndarray, seconds: float) -> None:
        truth = truths[seed]
        evaluation.online_seconds.append(seconds)
        evaluation.precisions.append(precision(predicted, truth))
        evaluation.recalls.append(recall(predicted, truth))
        if compute_quality:
            evaluation.conductances.append(conductance(graph, predicted))
            if graph.attributes is not None:
                evaluation.wcss_values.append(wcss(graph, predicted))

    if batch_size is None or batch_size == 1:
        for seed in seeds:
            t0 = time.perf_counter()
            predicted = method.cluster(seed, truths[seed].shape[0])
            _record(seed, predicted, time.perf_counter() - t0)
        return evaluation
    for lo in range(0, len(seeds), batch_size):
        chunk = seeds[lo : lo + batch_size]
        sizes = [truths[seed].shape[0] for seed in chunk]
        t0 = time.perf_counter()
        clusters = method.cluster_batch(chunk, sizes)
        per_seed = (time.perf_counter() - t0) / len(chunk)
        for seed, predicted in zip(chunk, clusters):
            _record(seed, predicted, per_seed)
    return evaluation


def evaluate_many(
    graph: AttributedGraph,
    methods: list[LocalClusteringMethod | str],
    seeds: np.ndarray,
    compute_quality: bool = False,
) -> list[MethodEvaluation]:
    """Evaluate several methods on the same graph and seed set."""
    results = []
    for method in methods:
        results.append(
            evaluate_method(graph, method, seeds, compute_quality=compute_quality)
        )
    return results


def grid_search(
    graph: AttributedGraph,
    factory,
    grid: dict[str, list],
    seeds: np.ndarray,
) -> tuple[dict, MethodEvaluation]:
    """Pick the parameter combination with the best mean precision.

    Mirrors the paper's protocol of grid-searching LGC methods and LACA
    and reporting the best precision.  ``factory(**params)`` must return
    a fitted-able method.
    """
    best_params: dict = {}
    best_eval: MethodEvaluation | None = None
    keys = list(grid)
    for values in itertools.product(*(grid[key] for key in keys)):
        params = dict(zip(keys, values))
        method = factory(**params)
        evaluation = evaluate_method(graph, method, seeds)
        if best_eval is None or evaluation.mean_precision > best_eval.mean_precision:
            best_eval = evaluation
            best_params = params
    assert best_eval is not None, "empty parameter grid"
    return best_params, best_eval
