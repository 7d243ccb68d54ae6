"""Result cache for served cluster queries.

An answered query is fully determined by (model identity, seed, cluster
size, hyper-parameters, **graph epoch**), so serving keeps a bounded LRU
of extracted clusters keyed on exactly that tuple and consults it before
paying a diffusion.  Entries are immutable arrays shared across callers;
hit/miss counters feed the service telemetry.

Epoch semantics: an answer is cached for one graph epoch only.  When the
graph advances (a :class:`~repro.graphs.store.GraphDelta` is applied),
entries keyed at older epochs can never hit again, and
:meth:`ResultCache.advance_epoch` drops them eagerly instead of leaving
them to age out under LRU pressure.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import threading
from collections import OrderedDict

import numpy as np

from ..core.config import LacaConfig

__all__ = ["ResultCache", "config_digest", "query_key"]

#: Index of the epoch stamp inside :func:`query_key` tuples (the cache
#: drops other epochs' entries in :meth:`ResultCache.advance_epoch`).
_EPOCH_SLOT = 4


def config_digest(config: LacaConfig) -> str:
    """Short stable digest of every LACA hyper-parameter.

    Part of each cache key: two services over the same graph but
    different configs (say, greedy vs adaptive diffusion) must never
    share entries, and a persisted model reloaded with the same config
    hashes identically across processes.
    """
    payload = json.dumps(dataclasses.asdict(config), sort_keys=True, default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def query_key(
    model_name: str, seed: int, size: int, digest: str, epoch: int = 0
) -> tuple:
    """The canonical cache key of one cluster query.

    ``epoch`` is the graph epoch the answer is valid for; pre-store
    callers (static graphs) omit it and key everything at epoch 0.
    """
    return (str(model_name), int(seed), int(size), str(digest), int(epoch))


class ResultCache:
    """Thread-safe LRU of answered cluster queries with hit/miss counters.

    ``get`` refreshes recency; ``put`` evicts the least-recently-used
    entry once ``capacity`` is exceeded.  Stored arrays are marked
    read-only so one caller cannot corrupt another caller's hit.
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity <= 0:
            raise ValueError(f"cache capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        self._entries: OrderedDict[tuple, np.ndarray] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        with self._lock:
            return key in self._entries

    def get(self, key: tuple) -> np.ndarray | None:
        """The cached cluster for ``key``, or None (counts a miss)."""
        with self._lock:
            cluster = self._entries.get(key)
            if cluster is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return cluster

    def put(self, key: tuple, cluster: np.ndarray) -> np.ndarray:
        """Insert ``cluster`` under ``key``; returns the stored array."""
        cluster = np.asarray(cluster)
        cluster.setflags(write=False)
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = cluster
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
        return cluster

    def advance_epoch(self, new_epoch: int) -> int:
        """Drop every entry keyed at an epoch other than ``new_epoch``.

        Entries already at ``new_epoch`` are kept in their LRU order.
        Returns how many entries were dropped.
        """
        new_epoch = int(new_epoch)
        with self._lock:
            kept = OrderedDict(
                (key, cluster)
                for key, cluster in self._entries.items()
                if key[_EPOCH_SLOT] == new_epoch
            )
            invalidated = len(self._entries) - len(kept)
            self._entries = kept
            self.invalidations += invalidated
        return invalidated

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def register_metrics(self, registry) -> None:
        """Expose cache state on a :class:`~repro.obs.metrics.MetricsRegistry`.

        Installs a snapshot hook that *pulls* point-in-time gauges at
        scrape time instead of pushing on every get/put — the cache's
        hot path stays untouched.  Lock order is registry-hook →
        ``self._lock``, never the reverse, so scrapes cannot deadlock
        against serving.
        """
        entries = registry.gauge(
            "laca_cache_entries", "Live result-cache entries"
        )
        capacity = registry.gauge(
            "laca_cache_capacity", "Result-cache LRU capacity"
        )
        hits = registry.gauge("laca_cache_hits", "Lifetime cache hits")
        misses = registry.gauge("laca_cache_misses", "Lifetime cache misses")
        evictions = registry.gauge(
            "laca_cache_evictions", "Lifetime LRU evictions"
        )
        hit_rate = registry.gauge(
            "laca_cache_hit_rate", "Fraction of lookups answered from cache"
        )

        def _pull() -> None:
            with self._lock:
                entries.set(len(self._entries))
                capacity.set(self.capacity)
                hits.set(self.hits)
                misses.set(self.misses)
                evictions.set(self.evictions)
                hit_rate.set(self._hit_rate_locked())

        registry.add_hook(_pull)

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from cache (0.0 before any).

        Reads both counters under the lock so a concurrent ``get`` can
        never produce a torn (hits, misses) pair.
        """
        with self._lock:
            return self._hit_rate_locked()

    def _hit_rate_locked(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        """Counter snapshot taken atomically under the cache lock."""
        with self._lock:
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
                "hit_rate": round(self._hit_rate_locked(), 4),
            }
