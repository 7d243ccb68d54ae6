"""Drift metrics for evolving-community tracking.

Layered on :mod:`repro.eval.metrics`: per-epoch recall/F1 against the
planted evolving partition come straight from there; this module adds
the *temporal* measures —

* :class:`SeedTracker` — Jaccard stability of a tracked seed's served
  cluster across consecutive epochs (Greene et al. 2010's community
  matching, specialized to local clusters);
* :func:`partition_drift` — fraction of surviving nodes whose planted
  label changed between two epochs (the ground-truth churn rate the
  tracker is up against);
* :func:`staleness_ledger` — aggregates the cache's invalidation and
  hit counters over a replay: how much cached state an update stream
  destroyed, and how much read traffic the cache still served after
  the first update.
"""

from __future__ import annotations

import numpy as np

from ..eval.metrics import jaccard

__all__ = ["SeedTracker", "partition_drift", "staleness_ledger"]


class SeedTracker:
    """Tracks the served cluster of a fixed seed set across epochs.

    ``observe`` returns the per-seed Jaccard overlap with that seed's
    cluster at the previous observation (1.0 = unchanged membership).
    The first observation has no predecessor and contributes nothing.
    """

    def __init__(self, seeds) -> None:
        self.seeds = [int(seed) for seed in seeds]
        self._previous: dict[int, np.ndarray] = {}

    def observe(self, clusters: dict[int, np.ndarray]) -> dict[int, float]:
        stability: dict[int, float] = {}
        for seed, cluster in clusters.items():
            seed = int(seed)
            cluster = np.asarray(cluster, dtype=np.int64)
            if seed in self._previous:
                stability[seed] = jaccard(cluster, self._previous[seed])
            self._previous[seed] = cluster
        return stability


def partition_drift(labels_before: np.ndarray, labels_after: np.ndarray) -> float:
    """Fraction of pre-existing nodes whose planted label changed.

    Compares the overlapping id range only (births don't count as
    drift; they are growth).  Retirement (label → -1) does count.
    """
    labels_before = np.asarray(labels_before)
    labels_after = np.asarray(labels_after)
    n = min(labels_before.shape[0], labels_after.shape[0])
    if n == 0:
        return 0.0
    return float(np.mean(labels_before[:n] != labels_after[:n]))


def staleness_ledger(epoch_reports: list[dict]) -> dict:
    """Aggregate the cache's epoch-advance counters over a replay.

    ``entries_invalidated`` counts the entries every update dropped (a
    cached answer lives for one epoch); ``stale_free_hits`` counts hits
    served after at least one update, all of them repeats within the
    epoch the answer was computed on.
    """
    invalidated = sum(r.get("cache_invalidations", 0) for r in epoch_reports)
    hits_after_update = sum(
        r.get("cache_hits", 0) for r in epoch_reports[1:]
    )
    return {
        "entries_invalidated": int(invalidated),
        "stale_free_hits": int(hits_after_update),
    }
