"""Result cache for served cluster queries.

An answered query is fully determined by (model identity, seed, cluster
size, hyper-parameters, **graph epoch**), so serving keeps a bounded LRU
of extracted clusters keyed on exactly that tuple and consults it before
paying a diffusion.  Entries are immutable arrays shared across callers;
hit/miss counters feed the service telemetry.

Epoch semantics: when the graph advances (a :class:`~repro.graphs.store
.GraphDelta` is applied), entries keyed at older epochs can never hit
again — they are *lazily* invalid and age out under LRU pressure.
:meth:`ResultCache.advance_epoch` optionally sweeps them eagerly, and —
because each entry remembers the *support* its diffusion explored — it
re-keys entries whose support is disjoint from the delta's touched
nodes to the new epoch instead of dropping them: a diffusion that never
read a touched node's row, degree, or attribute row is bitwise
unaffected by the delta, so its cached answer is still exact.
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
#: re-keys across epochs in :meth:`ResultCache.advance_epoch`).
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


def _intersects(support: np.ndarray, touched: np.ndarray) -> bool:
    """Whether sorted ``support`` shares a node with sorted ``touched``.

    One binary search per touched node, O(|touched| · log |support|):
    a delta touches few nodes while a local query's support spans a
    sizeable share of the graph, so scanning the support (``np.isin``)
    would make an epoch advance cost O(entries · support).  ``touched``
    is cast to the support's dtype first: searching int64 keys in an
    int32 support would make numpy copy the whole support up to int64.
    Ids past the support dtype's range cannot be in it and are dropped
    before the cast, so the cast never wraps.
    """
    if support.size == 0:
        return False
    if touched.dtype != support.dtype:
        touched = touched[touched <= np.iinfo(support.dtype).max]
        touched = touched.astype(support.dtype)
    at = np.minimum(np.searchsorted(support, touched), support.size - 1)
    return bool((support[at] == touched).any())


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
        #: key -> (cluster, support); support is the sorted union of the
        #: nodes the answering diffusion touched (None when unknown).
        self._entries: OrderedDict[tuple, tuple[np.ndarray, np.ndarray | None]] = (
            OrderedDict()
        )
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self.promotions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        with self._lock:
            return key in self._entries

    def get(self, key: tuple) -> np.ndarray | None:
        """The cached cluster for ``key``, or None (counts a miss)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry[0]

    def put(
        self, key: tuple, cluster: np.ndarray, support: np.ndarray | None = None
    ) -> np.ndarray:
        """Insert ``cluster`` under ``key``; returns the stored array.

        ``support`` (sorted node ids the answering diffusion explored)
        enables cross-epoch promotion in :meth:`advance_epoch`; entries
        stored without it are always invalidated by an epoch advance.
        An int32 support is stored as int32 (the service hands int32
        while ``n < 2³¹``); any other dtype is stored as int64.
        """
        cluster = np.asarray(cluster)
        cluster.setflags(write=False)
        if support is not None:
            support = np.asarray(support)
            if support.dtype != np.int32:
                support = np.asarray(support, dtype=np.int64)
            support.setflags(write=False)
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = (cluster, support)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
        return cluster

    def advance_epoch(
        self,
        new_epoch: int,
        touched: np.ndarray | None,
        expected_epoch: int | None = None,
    ) -> tuple[int, int]:
        """Eagerly reconcile entries with a graph-epoch advance.

        Entries already at ``new_epoch`` are kept.  Entries at
        ``expected_epoch`` (default: ``new_epoch - 1``) whose recorded
        support is disjoint from ``touched`` are *promoted* — re-keyed
        to ``new_epoch``, preserving LRU order — because the advance
        provably cannot have changed their answer (``touched`` must
        cover every delta between the two epochs).  Everything else is
        dropped: intersecting support, no recorded support,
        ``touched=None`` ("unknown, assume everything"), or an entry at
        any *other* epoch — the touched set says nothing about deltas
        outside the ``expected → new`` window, so such strays are never
        carried forward.  Returns ``(promoted, invalidated)`` counts.
        """
        new_epoch = int(new_epoch)
        expected = new_epoch - 1 if expected_epoch is None else int(expected_epoch)
        if touched is not None:
            touched = np.unique(np.asarray(touched, dtype=np.int64))
        promoted = invalidated = 0
        with self._lock:
            entries = self._entries
            reconciled: OrderedDict[tuple, tuple] = OrderedDict()
            for key, entry in entries.items():
                if key[_EPOCH_SLOT] == new_epoch:
                    reconciled[key] = entry
                    continue
                support = entry[1]
                if (
                    key[_EPOCH_SLOT] == expected
                    and touched is not None
                    and support is not None
                    and not _intersects(support, touched)
                ):
                    fresh = key[:_EPOCH_SLOT] + (new_epoch,)
                    reconciled[fresh] = entry
                    promoted += 1
                else:
                    invalidated += 1
            self._entries = reconciled
            self.promotions += promoted
            self.invalidations += invalidated
        return promoted, invalidated

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
                "promotions": self.promotions,
                "hit_rate": round(self._hit_rate_locked(), 4),
            }
