"""Tests for the LRU result cache and the config digest that keys it."""

import numpy as np
import pytest

from repro.core.config import LacaConfig
from repro.serving import ResultCache, config_digest, query_key


class TestResultCache:
    def test_miss_then_hit(self):
        cache = ResultCache(capacity=4)
        key = query_key("m", 0, 10, "digest")
        assert cache.get(key) is None
        cache.put(key, np.array([1, 2, 3]))
        np.testing.assert_array_equal(cache.get(key), [1, 2, 3])
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == 0.5

    def test_lru_eviction_order(self):
        cache = ResultCache(capacity=2)
        a, b, c = (query_key("m", seed, 5, "d") for seed in (0, 1, 2))
        cache.put(a, np.array([0]))
        cache.put(b, np.array([1]))
        cache.get(a)  # refresh a; b is now least recently used
        cache.put(c, np.array([2]))
        assert a in cache and c in cache and b not in cache
        assert cache.evictions == 1
        assert len(cache) == 2

    def test_put_refreshes_recency(self):
        cache = ResultCache(capacity=2)
        a, b, c = (query_key("m", seed, 5, "d") for seed in (0, 1, 2))
        cache.put(a, np.array([0]))
        cache.put(b, np.array([1]))
        cache.put(a, np.array([9]))  # re-put refreshes a
        cache.put(c, np.array([2]))
        assert b not in cache
        np.testing.assert_array_equal(cache.get(a), [9])

    def test_entries_are_read_only(self):
        cache = ResultCache(capacity=2)
        key = query_key("m", 0, 3, "d")
        stored = cache.put(key, np.array([1, 2, 3]))
        with pytest.raises(ValueError):
            stored[0] = 99
        with pytest.raises(ValueError):
            cache.get(key)[0] = 99

    def test_clear_keeps_counters(self):
        cache = ResultCache(capacity=2)
        key = query_key("m", 0, 3, "d")
        cache.put(key, np.array([1]))
        cache.get(key)
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 1

    def test_invalid_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            ResultCache(capacity=0)

    def test_stats_shape(self):
        cache = ResultCache(capacity=8)
        stats = cache.stats()
        assert stats["capacity"] == 8
        assert {
            "size", "hits", "misses", "evictions", "hit_rate",
            "invalidations",
        } <= set(stats)

    def test_stats_snapshot_is_consistent_under_churn(self):
        """Satellite: hit_rate/stats read all counters under the lock, so
        a snapshot taken during concurrent get/put churn is never torn
        (hits + misses always covers every completed lookup)."""
        import threading

        cache = ResultCache(capacity=32)
        stop = threading.Event()
        lookups = 8000

        def churn():
            for i in range(lookups):
                key = query_key("m", i % 64, 5, "d")
                if cache.get(key) is None:
                    cache.put(key, np.array([i]))

        worker = threading.Thread(target=churn)
        worker.start()
        try:
            while not stop.is_set() and worker.is_alive():
                stats = cache.stats()
                assert 0.0 <= stats["hit_rate"] <= 1.0
                total = stats["hits"] + stats["misses"]
                assert total <= lookups
                rate = cache.hit_rate
                assert 0.0 <= rate <= 1.0
        finally:
            stop.set()
            worker.join()
        final = cache.stats()
        assert final["hits"] + final["misses"] == lookups


class TestEpochBehavior:
    def test_keys_at_different_epochs_never_collide(self):
        cache = ResultCache(capacity=8)
        old = query_key("m", 0, 10, "d", epoch=0)
        new = query_key("m", 0, 10, "d", epoch=1)
        assert old != new
        cache.put(old, np.array([1]))
        assert cache.get(new) is None  # lazy invalidation: stale never hits

    def test_advance_epoch_drops_older_epochs_keeps_current_in_lru_order(self):
        """Every entry keyed at an older epoch is dropped and counted; the
        entries already at the new epoch stay, in their LRU order."""
        cache = ResultCache(capacity=4)
        for seed in (0, 1):
            cache.put(query_key("m", seed, 3, "d", epoch=0), np.array([seed]))
        current = [query_key("m", seed, 3, "d", epoch=1) for seed in (2, 3)]
        for key in current:
            cache.put(key, np.array([key[1]]))
        cache.get(current[0])  # seed 2 is now the most recent
        assert cache.advance_epoch(1) == 2
        assert list(cache._entries) == [current[1], current[0]]
        assert cache.stats()["invalidations"] == 2
        assert cache.advance_epoch(2) == 2
        assert len(cache) == 0
        assert cache.stats()["invalidations"] == 4

    def test_advance_epoch_preserves_lru_order(self):
        """After an advance the least recently used survivor is still the
        first one evicted once the cache fills up again."""
        cache = ResultCache(capacity=3)
        cache.put(query_key("m", 0, 3, "d", epoch=0), np.array([0]))
        a = query_key("m", 1, 3, "d", epoch=1)
        b = query_key("m", 2, 3, "d", epoch=1)
        cache.put(a, np.array([1]))
        cache.put(b, np.array([2]))
        cache.get(a)  # b is now the least recently used survivor
        assert cache.advance_epoch(1) == 1
        cache.put(query_key("m", 3, 3, "d", epoch=1), np.array([3]))
        cache.put(query_key("m", 4, 3, "d", epoch=1), np.array([4]))
        assert b not in cache and a in cache
        assert cache.evictions == 1

    def test_advance_epoch_drops_stray_epoch_entries(self):
        """Entries keyed at any epoch other than the new one go, whether
        they are one epoch behind, several behind, or ahead of it."""
        cache = ResultCache(capacity=8)
        stray = {
            query_key("m", 0, 3, "d", epoch=0): np.array([0]),
            query_key("m", 1, 3, "d", epoch=2): np.array([1]),
            query_key("m", 2, 3, "d", epoch=5): np.array([2]),
        }
        current = query_key("m", 3, 3, "d", epoch=3)
        for key, cluster in stray.items():
            cache.put(key, cluster)
        cache.put(current, np.array([3]))
        assert cache.advance_epoch(3) == len(stray)
        assert list(cache._entries) == [current]
        assert not any(key in cache for key in stray)

    def test_advance_epoch_to_the_current_epoch_drops_nothing(self):
        cache = ResultCache(capacity=8)
        keys = [query_key("m", seed, 3, "d", epoch=1) for seed in range(3)]
        for key in keys:
            cache.put(key, np.array([key[1]]))
        assert cache.advance_epoch(1) == 0
        assert cache.advance_epoch(1) == 0
        assert list(cache._entries) == keys
        assert cache.invalidations == 0
        assert ResultCache(capacity=2).advance_epoch(7) == 0

    def test_advance_epoch_leaves_lookup_counters_alone(self):
        """Only ``invalidations`` moves: hits, misses and evictions keep
        counting lookups and LRU pressure, not epoch advances."""
        cache = ResultCache(capacity=2)
        for seed in range(3):
            cache.put(query_key("m", seed, 3, "d"), np.array([seed]))
        cache.get(query_key("m", 2, 3, "d"))
        cache.get(query_key("m", 0, 3, "d"))
        before = cache.stats()
        assert cache.advance_epoch(1) == 2
        after = cache.stats()
        for name in ("hits", "misses", "evictions", "hit_rate"):
            assert after[name] == before[name]
        assert (after["size"], after["invalidations"]) == (0, 2)

    def test_entries_hold_the_cluster_array_itself(self):
        """An entry is the stored cluster alone: ``get`` hands back the
        very array ``put`` returned, with nothing else kept beside it."""
        cache = ResultCache(capacity=2)
        key = query_key("m", 0, 3, "d")
        stored = cache.put(key, np.array([4, 1, 7], dtype=np.int64))
        assert cache.get(key) is stored
        assert cache._entries[key] is stored
        np.testing.assert_array_equal(stored, [4, 1, 7])

    def test_advance_epoch_under_concurrent_puts_accounts_every_entry(self):
        """Writers put fresh keys at whatever epoch is current while the
        main thread advances it.  Every put entry ends up exactly once as
        live, evicted or invalidated, and the last advance leaves only
        entries keyed at the final epoch."""
        import threading

        cache = ResultCache(capacity=64)
        epoch = [0]
        per_writer, writers = 2000, 2

        def write(offset):
            for i in range(per_writer):
                key = query_key("m", offset + i, 3, "d", epoch=epoch[0])
                if cache.get(key) is None:
                    cache.put(key, np.array([i]))

        threads = [
            threading.Thread(target=write, args=(w * per_writer,))
            for w in range(writers)
        ]
        for thread in threads:
            thread.start()
        try:
            while any(thread.is_alive() for thread in threads):
                epoch[0] += 1
                cache.advance_epoch(epoch[0])
        finally:
            for thread in threads:
                thread.join()
        final = epoch[0] + 1
        cache.advance_epoch(final)
        assert len(cache) == 0
        stats = cache.stats()
        assert stats["misses"] == per_writer * writers
        assert stats["evictions"] + stats["invalidations"] == per_writer * writers


class TestConfigDigest:
    #: One non-default value per LacaConfig field; the field-driven tests
    #: below fail if a newly added knob is missing here, so digest
    #: coverage can never silently lag the config schema.
    _VARIANTS = {
        "alpha": 0.9,
        "sigma": 0.2,
        "epsilon": 1e-5,
        "k": 16,
        "metric": "exp_cosine",
        "delta": 2.0,
        "use_snas": False,
        "use_svd": False,
        "diffusion": "greedy",
    }

    def test_stable_across_instances(self):
        assert config_digest(LacaConfig()) == config_digest(LacaConfig())

    def test_equal_nondefault_configs_hash_equal(self):
        a = LacaConfig(**self._VARIANTS)
        b = LacaConfig(**self._VARIANTS)
        assert a is not b
        assert config_digest(a) == config_digest(b)

    def test_every_field_change_changes_the_digest(self):
        import dataclasses

        base = LacaConfig()
        fields = {field.name for field in dataclasses.fields(LacaConfig)}
        assert fields == set(self._VARIANTS), (
            "LacaConfig gained/lost a field; update _VARIANTS so the "
            "digest stays sensitive to it"
        )
        digests = {config_digest(base)}
        for name, value in self._VARIANTS.items():
            assert value != getattr(base, name)
            digests.add(config_digest(base.with_updates(**{name: value})))
        assert len(digests) == len(self._VARIANTS) + 1

    def test_key_separates_models_and_sizes(self):
        digest = config_digest(LacaConfig())
        assert query_key("a", 0, 10, digest) != query_key("b", 0, 10, digest)
        assert query_key("a", 0, 10, digest) != query_key("a", 0, 11, digest)
