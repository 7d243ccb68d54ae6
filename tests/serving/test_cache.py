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
            "invalidations", "promotions",
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

    def test_advance_epoch_promotes_disjoint_supports(self):
        cache = ResultCache(capacity=8)
        stale = query_key("m", 0, 3, "d", epoch=0)
        safe = query_key("m", 1, 3, "d", epoch=0)
        blind = query_key("m", 2, 3, "d", epoch=0)
        cache.put(stale, np.array([0, 5]), support=np.array([0, 5, 6]))
        cache.put(safe, np.array([1, 9]), support=np.array([1, 9]))
        cache.put(blind, np.array([2]))  # no recorded support
        promoted, invalidated = cache.advance_epoch(1, touched=np.array([5]))
        assert (promoted, invalidated) == (1, 2)
        np.testing.assert_array_equal(
            cache.get(query_key("m", 1, 3, "d", epoch=1)), [1, 9]
        )
        assert cache.get(query_key("m", 0, 3, "d", epoch=1)) is None
        assert cache.get(query_key("m", 2, 3, "d", epoch=1)) is None

    def test_advance_epoch_matches_isin_on_sorted_supports(self):
        """The binary-search intersection promotes exactly the entries
        whose sorted support ``np.isin`` finds disjoint from ``touched``,
        including empty supports, empty and unsorted touched sets, and
        touched nodes past either end of a support."""
        rng = np.random.default_rng(0)
        supports = [np.empty(0, dtype=np.int64), np.array([0]), np.array([999])]
        supports += [
            np.sort(rng.choice(1000, size=size, replace=False))
            for size in (1, 5, 50, 500, 990)
        ]
        touched_sets = [np.empty(0, dtype=np.int64), np.array([0]), np.array([999])]
        touched_sets += [rng.choice(1000, size=size) for size in (1, 3, 30)]
        for touched in touched_sets:
            cache = ResultCache(capacity=len(supports))
            for seed, support in enumerate(supports):
                cache.put(query_key("m", seed, 3, "d"), np.array([seed]), support)
            expected = [
                not np.isin(support, touched).any() for support in supports
            ]
            promoted, invalidated = cache.advance_epoch(1, touched=touched)
            assert (promoted, invalidated) == (
                sum(expected), len(expected) - sum(expected)
            )
            for seed, kept in enumerate(expected):
                key = query_key("m", seed, 3, "d", epoch=1)
                assert (key in cache) == kept

    @pytest.mark.parametrize(
        "given, stored",
        [
            (np.int32, np.int32),
            (np.int64, np.int64),
            (np.int16, np.int64),
            (np.uint8, np.int64),
        ],
    )
    def test_support_dtype_and_promotion(self, given, stored):
        """int32 supports are stored as given (the service hands int32);
        every other dtype is widened to int64.  Promotion depends on the
        node ids alone: a touched id past the stored dtype's range must
        not wrap onto a support id (``2**32 + 9`` would read as 9 in any
        narrower integer)."""
        cache = ResultCache(capacity=8)
        supports = {0: [0, 5, 6], 1: [1, 9], 2: [7, 100]}
        for seed, support in supports.items():
            cache.put(
                query_key("m", seed, 3, "d"), np.array([seed]),
                support=np.array(support, dtype=given),
            )
        assert all(entry[1].dtype == stored for entry in cache._entries.values())
        touched = np.array([5, 100, 2**32 + 9], dtype=np.int64)
        assert cache.advance_epoch(1, touched=touched) == (1, 2)
        assert query_key("m", 1, 3, "d", epoch=1) in cache

    def test_advance_epoch_unknown_touched_drops_everything(self):
        cache = ResultCache(capacity=8)
        cache.put(query_key("m", 0, 3, "d"), np.array([0]), support=np.array([0]))
        promoted, invalidated = cache.advance_epoch(1, touched=None)
        assert (promoted, invalidated) == (0, 1)
        assert len(cache) == 0

    def test_advance_epoch_drops_stray_epoch_entries(self):
        """Only entries at the expected (previous) epoch are promotable:
        the touched set says nothing about deltas outside that window,
        so a disjoint-support entry from an older epoch is still
        dropped."""
        cache = ResultCache(capacity=8)
        stray = query_key("m", 0, 3, "d", epoch=0)
        current = query_key("m", 1, 3, "d", epoch=2)
        cache.put(stray, np.array([0]), support=np.array([0]))
        cache.put(current, np.array([1]), support=np.array([1]))
        promoted, invalidated = cache.advance_epoch(
            3, touched=np.array([50]), expected_epoch=2
        )
        assert (promoted, invalidated) == (1, 1)
        assert query_key("m", 1, 3, "d", epoch=3) in cache
        assert query_key("m", 0, 3, "d", epoch=3) not in cache

    def test_advance_epoch_empty_touched_promotes_all(self):
        cache = ResultCache(capacity=8)
        cache.put(query_key("m", 0, 3, "d"), np.array([0]), support=np.array([0]))
        promoted, invalidated = cache.advance_epoch(1, touched=np.array([], dtype=np.int64))
        assert (promoted, invalidated) == (1, 0)

    def test_advance_epoch_preserves_lru_order(self):
        cache = ResultCache(capacity=2)
        a = query_key("m", 0, 3, "d")
        b = query_key("m", 1, 3, "d")
        cache.put(a, np.array([0]), support=np.array([10]))
        cache.put(b, np.array([1]), support=np.array([11]))
        cache.get(a)  # a most recent
        cache.advance_epoch(1, touched=np.array([99]))
        cache.put(query_key("m", 2, 3, "d", epoch=1), np.array([2]))
        # b was least recently used and should have been evicted
        assert query_key("m", 1, 3, "d", epoch=1) not in cache
        assert query_key("m", 0, 3, "d", epoch=1) in cache


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
