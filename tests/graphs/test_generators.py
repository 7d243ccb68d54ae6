"""Tests for the synthetic attributed-SBM generators."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.graphs.datasets import ATTRIBUTED_DATASETS, NON_ATTRIBUTED_DATASETS, load_dataset
from repro.graphs.generators import (
    SBMConfig,
    attributed_sbm,
    community_sizes,
    ensure_connected_cover,
    plain_sbm,
    planted_partition_edges,
    rewire_edges,
    sample_secondary_memberships,
    topic_attributes,
)
from repro.graphs.graph import normalize_rows


class TestCommunitySizes:
    def test_sums_to_n(self, rng):
        sizes = community_sizes(1000, 7, rng)
        assert sizes.sum() == 1000
        assert sizes.shape == (7,)
        assert sizes.min() >= 1

    @given(
        n=st.integers(min_value=50, max_value=2000),
        k=st.integers(min_value=1, max_value=10),
        seed=st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_sums_and_positive(self, n, k, seed):
        sizes = community_sizes(n, k, np.random.default_rng(seed))
        assert sizes.sum() == n
        assert (sizes >= 1).all()


class TestPlantedPartitionEdges:
    def test_edge_count_near_target(self, rng):
        labels = np.repeat(np.arange(4), 250)
        edges = planted_partition_edges(labels, avg_degree=10.0, mixing=0.2, rng=rng)
        # Half-edges target: 10 * 1000 → ~5000 edges before dedup.
        assert 4000 <= edges.shape[0] <= 5100

    def test_mixing_controls_intra_fraction(self, rng):
        labels = np.repeat(np.arange(4), 250)
        low = planted_partition_edges(labels, 10.0, mixing=0.05, rng=rng)
        high = planted_partition_edges(labels, 10.0, mixing=0.8, rng=rng)

        def intra_fraction(edges):
            return float(np.mean(labels[edges[:, 0]] == labels[edges[:, 1]]))

        assert intra_fraction(low) > intra_fraction(high) + 0.3

    def test_secondary_members_receive_cross_edges(self, rng):
        labels = np.repeat(np.arange(2), 200)
        secondary = np.full(400, -1)
        secondary[:50] = 1  # first 50 of community 0 also join community 1
        edges = planted_partition_edges(
            labels, 12.0, mixing=0.0, rng=rng, secondary=secondary
        )
        member = (edges[:, 0] < 50) | (edges[:, 1] < 50)
        other_side = edges[member]
        # With mixing=0, any edge between community-0-with-secondary and a
        # community-1 primary node must come from secondary participation.
        crosses = (
            (labels[other_side[:, 0]] != labels[other_side[:, 1]]).sum()
        )
        assert crosses > 0


class TestTopicAttributes:
    def test_shape_and_normalization(self, rng):
        labels = np.repeat(np.arange(3), 40)
        attrs = topic_attributes(labels, d=32, attribute_noise=0.5,
                                 topic_overlap=0.1, rng=rng)
        assert attrs.shape == (120, 32)
        assert np.allclose(np.linalg.norm(attrs, axis=1), 1.0)

    def test_non_negative(self, rng):
        labels = np.repeat(np.arange(3), 40)
        attrs = topic_attributes(labels, 32, 1.0, 0.3, rng)
        assert (attrs >= 0).all()

    def test_within_community_more_similar(self, rng):
        labels = np.repeat(np.arange(2), 100)
        attrs = topic_attributes(labels, 64, 0.4, 0.1, rng)
        gram = attrs @ attrs.T
        same = gram[:100, :100].mean()
        cross = gram[:100, 100:].mean()
        assert same > cross + 0.2

    def test_noise_reduces_similarity(self, rng):
        labels = np.repeat(np.arange(2), 100)
        clean = topic_attributes(labels, 64, 0.1, 0.1, np.random.default_rng(1))
        noisy = topic_attributes(labels, 64, 3.0, 0.1, np.random.default_rng(1))

        def gap(attrs):
            gram = attrs @ attrs.T
            return gram[:100, :100].mean() - gram[:100, 100:].mean()

        assert gap(clean) > gap(noisy)


class TestRewireEdges:
    def test_zero_fraction_is_identity(self, rng):
        edges = np.array([[0, 1], [2, 3]])
        assert rewire_edges(edges, 0.0, 10, rng) is edges

    def test_rewires_requested_fraction(self, rng):
        edges = np.column_stack([np.arange(1000), np.arange(1000) + 1000])
        rewired = rewire_edges(edges, 0.5, 2000, rng)
        changed = np.any(rewired != edges, axis=1).sum()
        assert 350 <= changed <= 500  # some rewires may land on the original

    def test_does_not_mutate_input(self, rng):
        edges = np.array([[0, 1], [2, 3], [4, 5]])
        original = edges.copy()
        rewire_edges(edges, 1.0, 10, rng)
        assert np.array_equal(edges, original)


class TestSecondaryMemberships:
    def test_fraction_respected(self, rng):
        labels = np.repeat(np.arange(4), 500)
        secondary = sample_secondary_memberships(labels, 0.3, rng)
        fraction = float((secondary >= 0).mean())
        assert 0.25 < fraction < 0.35

    def test_secondary_never_equals_primary(self, rng):
        labels = np.repeat(np.arange(4), 500)
        secondary = sample_secondary_memberships(labels, 0.5, rng)
        has = secondary >= 0
        assert not np.any(secondary[has] == labels[has])

    def test_zero_fraction(self, rng):
        labels = np.repeat(np.arange(4), 10)
        secondary = sample_secondary_memberships(labels, 0.0, rng)
        assert (secondary == -1).all()

    def test_single_community_noop(self, rng):
        labels = np.zeros(20, dtype=np.int64)
        secondary = sample_secondary_memberships(labels, 0.9, rng)
        assert (secondary == -1).all()


class TestAttributedSBM:
    def test_deterministic_per_seed(self):
        config = SBMConfig(n=100, n_communities=3, avg_degree=6.0, d=16)
        a = attributed_sbm(config, seed=5)
        b = attributed_sbm(config, seed=5)
        assert (a.adjacency != b.adjacency).nnz == 0
        assert np.array_equal(a.attributes, b.attributes)
        assert np.array_equal(a.communities, b.communities)

    def test_different_seeds_differ(self):
        config = SBMConfig(n=100, n_communities=3, avg_degree=6.0, d=16)
        a = attributed_sbm(config, seed=5)
        b = attributed_sbm(config, seed=6)
        assert (a.adjacency != b.adjacency).nnz > 0

    def test_no_isolated_nodes(self):
        config = SBMConfig(n=300, n_communities=5, avg_degree=3.0, d=8)
        graph = attributed_sbm(config, seed=1)
        assert graph.degrees.min() >= 1

    def test_average_degree_near_target(self):
        config = SBMConfig(n=2000, n_communities=4, avg_degree=12.0, d=8)
        graph = attributed_sbm(config, seed=1)
        realized = 2.0 * graph.m / graph.n
        # Dedup removes multi-edges; the connectivity chains add a few.
        assert 8.0 <= realized <= 14.5

    def test_connected(self):
        import networkx as nx

        config = SBMConfig(n=200, n_communities=4, avg_degree=5.0, d=8)
        graph = attributed_sbm(config, seed=2)
        assert nx.is_connected(graph.to_networkx())


class TestPlainSBM:
    def test_no_attributes(self, plain_graph):
        assert plain_graph.attributes is None
        assert plain_graph.communities is not None

    def test_ground_truth_available(self, plain_graph):
        cluster = plain_graph.ground_truth_cluster(0)
        assert cluster.shape[0] > 1


# ----------------------------------------------------------------------
# Reference path: the whole-matrix formulas the in-place generators and
# the blocked ``normalize_rows`` replaced.  Every output must match them
# bit for bit, on whatever numpy the suite runs with.
# ----------------------------------------------------------------------
def _reference_normalize_rows(matrix):
    matrix = np.asarray(matrix, dtype=np.float64)
    norms = np.linalg.norm(matrix, axis=1)
    safe = np.where(norms > 0.0, norms, 1.0)
    return matrix / safe[:, None]


def _reference_sparse_topic_profiles(count, d, rng):
    support_size = max(2, d // 4)
    profiles = np.zeros((count, d))
    for row in range(count):
        support = rng.choice(d, size=support_size, replace=False)
        profiles[row, support] = rng.exponential(scale=1.0, size=support_size)
    return _reference_normalize_rows(profiles)


def _reference_topic_attributes(
    labels, d, attribute_noise, topic_overlap, rng, secondary=None,
    secondary_weight=0.35,
):
    n_communities = int(labels.max()) + 1
    n = labels.shape[0]
    topics = _reference_sparse_topic_profiles(n_communities, d, rng)
    background = _reference_sparse_topic_profiles(1, d, rng)[0]
    topics = (1.0 - topic_overlap) * topics + topic_overlap * background
    topics = _reference_normalize_rows(topics)
    confusers = topics[rng.integers(0, n_communities, size=n)]
    random_profiles = _reference_sparse_topic_profiles(n, d, rng)
    noise = _reference_normalize_rows(0.7 * confusers + 0.3 * random_profiles)
    signal = topics[labels]
    if secondary is not None:
        has_secondary = secondary >= 0
        signal = signal.copy()
        signal[has_secondary] = (1.0 - secondary_weight) * signal[
            has_secondary
        ] + secondary_weight * topics[secondary[has_secondary]]
    attrs = signal + attribute_noise * noise
    return _reference_normalize_rows(attrs)


def _reference_adjacency(n, edges):
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    edges = edges[edges[:, 0] != edges[:, 1]]
    rows = np.concatenate([edges[:, 0], edges[:, 1]])
    cols = np.concatenate([edges[:, 1], edges[:, 0]])
    adj = sp.csr_matrix((np.ones(rows.shape[0]), (rows, cols)), shape=(n, n))
    adj.data[:] = 1.0
    adj.setdiag(0.0)
    adj.eliminate_zeros()
    adj.sort_indices()
    return adj


def _reference_dataset(spec):
    """``(adjacency, attributes, labels, secondary)`` of a registered
    dataset, drawn as ``attributed_sbm`` / ``plain_sbm`` draw it."""
    cfg = spec.config
    rng = np.random.default_rng(spec.seed)
    sizes = community_sizes(cfg.n, cfg.n_communities, rng)
    labels = np.repeat(np.arange(cfg.n_communities), sizes)
    rng.shuffle(labels)
    attrs = None
    if spec.plain:
        secondary = sample_secondary_memberships(labels, 0.2, rng)
        edges = planted_partition_edges(
            labels, cfg.avg_degree, cfg.mixing, rng, secondary=secondary
        )
        edges = ensure_connected_cover(edges, labels, rng)
    else:
        secondary = sample_secondary_memberships(labels, cfg.secondary_fraction, rng)
        edges = planted_partition_edges(
            labels, cfg.avg_degree, cfg.mixing, rng, secondary=secondary,
            secondary_weight=cfg.secondary_weight,
        )
        edges = rewire_edges(edges, cfg.rewire_fraction, cfg.n, rng)
        edges = ensure_connected_cover(edges, labels, rng)
        attrs = _reference_normalize_rows(
            _reference_topic_attributes(
                labels, cfg.d, cfg.attribute_noise, cfg.topic_overlap, rng,
                secondary=secondary, secondary_weight=cfg.secondary_weight,
            )
        )
    return _reference_adjacency(cfg.n, edges), attrs, labels, secondary


def _assert_bitwise(actual, expected):
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype
    assert np.array_equal(
        np.ascontiguousarray(actual).view(np.uint64),
        np.ascontiguousarray(expected).view(np.uint64),
    )


class TestMatchesReferencePath:
    @pytest.mark.parametrize("d", [16, 128])
    @pytest.mark.parametrize("n", [300, 2500])
    @pytest.mark.parametrize("with_secondary", [False, True])
    @pytest.mark.parametrize("attribute_noise", [0.0, 1.8])
    def test_topic_attributes_bitwise(self, d, n, with_secondary, attribute_noise):
        labels = np.random.default_rng(n + d).integers(0, 7, size=n)
        secondary = None
        if with_secondary:
            secondary = sample_secondary_memberships(
                labels, 0.3, np.random.default_rng(d)
            )
        actual = topic_attributes(
            labels, d, attribute_noise, 0.4, np.random.default_rng(5),
            secondary=secondary,
        )
        expected = _reference_topic_attributes(
            labels, d, attribute_noise, 0.4, np.random.default_rng(5),
            secondary=secondary,
        )
        _assert_bitwise(actual, expected)
        assert actual.flags.c_contiguous

    @pytest.mark.parametrize("d", [3, 16, 128])
    @pytest.mark.parametrize(
        "layout", ["C", "F", "strided", "reversed", "integer", "empty"]
    )
    def test_normalize_rows_bitwise(self, d, layout):
        rng = np.random.default_rng(d)
        base = rng.exponential(size=(2500, d))
        base[::7] = 0.0  # zero rows stay zero
        matrix = {
            "C": base,
            "F": np.asfortranarray(base),
            "strided": np.asfortranarray(base)[1::3, ::2],
            "reversed": base[::-1, ::-1],
            "integer": rng.integers(-5, 6, size=(2100, d)),
            "empty": base[:0],
        }[layout]
        before = matrix.copy()
        actual = normalize_rows(matrix)
        expected = _reference_normalize_rows(matrix)
        _assert_bitwise(actual, expected)
        assert actual.flags.c_contiguous == expected.flags.c_contiguous
        assert actual.flags.f_contiguous == expected.flags.f_contiguous
        assert np.array_equal(matrix, before)

    @pytest.mark.parametrize(
        "name, scale",
        [("arxiv", 1.0), ("yelp", 0.25), ("dblp", 0.25)],
    )
    def test_load_dataset_bitwise(self, name, scale):
        spec = {**ATTRIBUTED_DATASETS, **NON_ATTRIBUTED_DATASETS}[name].scaled(scale)
        graph = load_dataset(name, scale=scale, cache=False)
        adj, attrs, labels, secondary = _reference_dataset(spec)
        for field in ("indptr", "indices", "data"):
            actual, expected = getattr(graph.adjacency, field), getattr(adj, field)
            assert actual.dtype == expected.dtype
            assert np.array_equal(actual, expected)
        assert graph.adjacency.indices.dtype == np.int32
        assert graph.adjacency.has_canonical_format
        _assert_bitwise(graph.degrees, np.asarray(adj.sum(axis=1)).ravel())
        assert np.array_equal(graph.communities, labels)
        assert np.array_equal(graph.secondary_communities, secondary)
        if spec.plain:
            assert graph.attributes is None
        else:
            _assert_bitwise(graph.attributes, attrs)


def test_topic_attributes_peak_memory_near_its_output():
    """The generator builds no n×d temporary besides its output.

    tracemalloc peak over output bytes, n = 20,000, d = 128: 1.12 for the
    in-place generator; the whole-matrix expressions read 6.0.
    """
    rng = np.random.default_rng(3)
    labels = rng.integers(0, 40, size=20_000)
    secondary = sample_secondary_memberships(labels, 0.3, rng)
    tracemalloc.start()
    try:
        attrs = topic_attributes(labels, 128, 1.8, 0.4, rng, secondary=secondary)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * attrs.nbytes
