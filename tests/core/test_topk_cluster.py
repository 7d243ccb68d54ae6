"""top_k_cluster vs. a brute-force argsort reference (satellite, PR 3).

The partition-based selection (and its new support-restricted fast path)
must reproduce, for every size/tie/seed configuration, the semantics a
straightforward stable argsort would produce: top-``size`` by score,
ties and zeros broken by ascending node index, seed force-inserted by
displacing the lowest-ranked retained node (highest index among the
lowest scorers).
"""

import numpy as np
import pytest

from repro.core.laca import top_k_cluster


def brute_force_reference(scores: np.ndarray, size: int, seed: int) -> np.ndarray:
    """O(n log n) oracle: stable sort by (-score, index), then force-seed."""
    n = scores.shape[0]
    size = min(size, n)
    if size == n:
        return np.arange(n)
    order = sorted(range(n), key=lambda i: (-scores[i], i))
    retained = order[:size]
    if seed not in retained:
        retained = [seed] + retained[:-1]
    return np.sort(np.array(retained, dtype=np.int64))


def _supports(scores):
    """The exact support plus legal sorted supersets."""
    exact = np.flatnonzero(scores)
    yield None
    yield exact
    n = scores.shape[0]
    padded = np.unique(np.concatenate([exact, [0, n - 1]]))
    yield padded


class TestPropertySweep:
    @pytest.mark.parametrize("n", [1, 2, 7, 40, 173])
    def test_random_scores_all_sizes(self, n, rng):
        scores = rng.random(n) * (rng.random(n) < 0.6)
        for size in {1, 2, n // 2 or 1, n - 1 or 1, n, n + 5}:
            for seed in {0, n // 2, n - 1}:
                expected = brute_force_reference(scores, size, seed)
                for support in _supports(scores):
                    got = top_k_cluster(scores, size, seed, support=support)
                    np.testing.assert_array_equal(
                        got, expected, err_msg=f"n={n} size={size} seed={seed}"
                    )

    def test_heavy_ties(self, rng):
        """Quantized scores force large tie groups at the boundary."""
        n = 120
        scores = np.round(rng.random(n) * 4) / 4.0
        for size in (3, 17, 60, 119):
            for seed in (0, 55, 119):
                expected = brute_force_reference(scores, size, seed)
                for support in _supports(scores):
                    got = top_k_cluster(scores, size, seed, support=support)
                    np.testing.assert_array_equal(got, expected)

    def test_forced_seed_displacement(self):
        """A zero-score seed displaces the highest-index lowest scorer."""
        scores = np.array([0.0, 5.0, 3.0, 3.0, 1.0, 0.0])
        cluster = top_k_cluster(scores, 3, seed=5)
        # top-3 without the seed would be {1, 2, 3}; node 3 (the
        # highest-index boundary tie) is displaced.
        np.testing.assert_array_equal(cluster, np.array([1, 2, 5]))
        np.testing.assert_array_equal(
            cluster, brute_force_reference(scores, 3, 5)
        )

    def test_all_zero_scores(self):
        scores = np.zeros(9)
        for seed in (2, 7):
            for support in _supports(scores):
                np.testing.assert_array_equal(
                    top_k_cluster(scores, 4, seed=seed, support=support),
                    brute_force_reference(scores, 4, seed),
                )

    def test_support_path_matches_dense_path(self, rng):
        """The O(support) fast path and the dense path agree bitwise."""
        n = 500
        scores = rng.random(n) * (rng.random(n) < 0.1)
        support = np.flatnonzero(scores)
        assume_sizes = [s for s in (1, 3, support.size) if s >= 1]
        for size in assume_sizes:
            for seed in (0, int(support[0]) if support.size else 0):
                dense = top_k_cluster(scores, size, seed)
                fast = top_k_cluster(scores, size, seed, support=support)
                np.testing.assert_array_equal(dense, fast)

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            top_k_cluster(np.ones(4), 0, 0)
