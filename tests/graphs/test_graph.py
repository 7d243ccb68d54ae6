"""Unit tests for the AttributedGraph substrate."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.graphs.graph import AttributedGraph, normalize_rows


class TestNormalizeRows:
    def test_unit_norms(self, rng):
        matrix = rng.normal(size=(10, 5))
        normalized = normalize_rows(matrix)
        assert np.allclose(np.linalg.norm(normalized, axis=1), 1.0)

    def test_zero_rows_survive(self):
        matrix = np.array([[0.0, 0.0], [3.0, 4.0]])
        normalized = normalize_rows(matrix)
        assert np.allclose(normalized[0], 0.0)
        assert np.allclose(normalized[1], [0.6, 0.8])

    def test_does_not_mutate_input(self):
        matrix = np.array([[3.0, 4.0]])
        normalize_rows(matrix)
        assert np.allclose(matrix, [[3.0, 4.0]])


class TestConstruction:
    def test_basic_counts(self, tiny_graph):
        assert tiny_graph.n == 6
        assert tiny_graph.m == 7
        assert tiny_graph.d == 3

    def test_degrees(self, tiny_graph):
        assert np.allclose(tiny_graph.degrees, [2, 2, 3, 3, 2, 2])

    def test_attributes_l2_normalized(self, tiny_graph):
        norms = np.linalg.norm(tiny_graph.attributes, axis=1)
        assert np.allclose(norms, 1.0)

    def test_self_loops_dropped(self):
        graph = AttributedGraph.from_edges(3, [(0, 1), (1, 1), (1, 2)])
        assert graph.m == 2

    def test_duplicate_edges_collapsed(self):
        graph = AttributedGraph.from_edges(3, [(0, 1), (1, 0), (0, 1), (1, 2)])
        assert graph.m == 2
        assert graph.adjacency.max() == 1.0

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            AttributedGraph(adjacency=sp.csr_matrix(np.ones((2, 3))))

    def test_rejects_asymmetric(self):
        adj = sp.csr_matrix(np.array([[0, 1, 0], [0, 0, 1], [0, 1, 0]]))
        with pytest.raises(ValueError, match="symmetric"):
            AttributedGraph(adjacency=adj)

    def test_rejects_isolated_nodes(self):
        adj = sp.csr_matrix(
            np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=float)
        )
        with pytest.raises(ValueError, match="isolated"):
            AttributedGraph(adjacency=adj)

    def test_isolated_node_error_counts_and_names_offenders(self):
        """The message is actionable: count plus the first offending ids."""
        dense = np.zeros((8, 8))
        dense[0, 1] = dense[1, 0] = 1.0
        with pytest.raises(
            ValueError, match=r"6 isolated node\(s\) \(node ids: 2, 3, 4, 5, 6, \.\.\.\)"
        ):
            AttributedGraph(adjacency=sp.csr_matrix(dense))

    def test_isolated_node_error_short_list_has_no_ellipsis(self):
        dense = np.zeros((4, 4))
        dense[0, 1] = dense[1, 0] = 1.0
        with pytest.raises(ValueError, match=r"ids: 2, 3\)") as excinfo:
            AttributedGraph(adjacency=sp.csr_matrix(dense))
        assert "..." not in str(excinfo.value)

    def test_rejects_wrong_attribute_rows(self):
        with pytest.raises(ValueError, match="attribute"):
            AttributedGraph.from_edges(3, [(0, 1), (1, 2)], attributes=np.ones((2, 4)))

    def test_rejects_wrong_community_shape(self):
        with pytest.raises(ValueError, match="communities"):
            AttributedGraph.from_edges(
                3, [(0, 1), (1, 2)], communities=np.array([0, 1])
            )

    def test_secondary_requires_primary(self):
        with pytest.raises(ValueError, match="primary"):
            AttributedGraph.from_edges(
                3,
                [(0, 1), (1, 2)],
                secondary_communities=np.array([-1, 0, -1]),
            )

    @pytest.mark.parametrize("diagonal", [2.0, 0.0])
    def test_stored_diagonal_dropped(self, diagonal):
        rows, cols = [0, 0, 1, 2, 1], [1, 2, 0, 0, 1]
        adj = sp.csr_matrix(([1.0, 1.0, 1.0, 1.0, diagonal], (rows, cols)), shape=(3, 3))
        assert adj.nnz == 5  # the diagonal entry is stored even when zero
        graph = AttributedGraph(adjacency=adj)
        assert graph.adjacency.diagonal().tolist() == [0.0, 0.0, 0.0]
        assert graph.adjacency.nnz == 4
        assert np.array_equal(graph.degrees, [2.0, 1.0, 1.0])

    @pytest.mark.parametrize(
        "entries, symmetric",
        [
            ({(0, 1): 0.5, (1, 0): 0.5 + 4e-13}, True),  # within the tolerance
            ({(0, 1): 0.5, (1, 0): 0.5 + 4e-12}, False),  # beyond it
            ({(0, 1): 0.5, (1, 0): 0.5, (0, 2): 4e-13}, True),  # tiny, unmirrored
            ({(0, 1): 0.5, (1, 0): 0.5, (0, 2): 0.25}, False),  # unmirrored
        ],
    )
    def test_symmetry_tolerance(self, entries, symmetric):
        """``|a_ij - a_ji| ≤ 1e-12`` passes, whether or not both are stored."""
        rows, cols = zip(*entries)
        adj = sp.csr_matrix((list(entries.values()), (rows, cols)), shape=(3, 3))
        adj = adj + sp.csr_matrix(([1.0, 1.0], ([1, 2], [2, 1])), shape=(3, 3))
        if symmetric:
            AttributedGraph(adjacency=adj)
        else:
            with pytest.raises(ValueError, match="symmetric"):
                AttributedGraph(adjacency=adj)

    @pytest.mark.parametrize(
        "data, indices, indptr",
        [
            # an explicit zero and an unsorted row, no diagonal
            ([1.0, 1.0, 0.0, 1.0, 1.0], [2, 1, 2, 0, 0], [0, 2, 4, 5]),
            # every diagonal entry stored, rows unsorted
            ([1.0, 5.0, 1.0, 5.0, 1.0, 1.0, 5.0], [2, 0, 1, 1, 0, 0, 2], [0, 3, 5, 7]),
        ],
    )
    def test_callers_matrix_left_unchanged(self, data, indices, indptr):
        """The graph edits its own copy: the caller's arrays keep their
        values and order, and a read-only matrix is accepted."""
        arrays = (
            np.array(data),
            np.array(indices, dtype=np.int32),
            np.array(indptr, dtype=np.int32),
        )
        for array in arrays:
            array.flags.writeable = False
        adj = sp.csr_matrix(arrays, shape=(3, 3))
        graph = AttributedGraph(adjacency=adj)
        assert graph.adjacency.nnz == 4
        assert graph.adjacency.has_canonical_format
        assert np.array_equal(graph.degrees, [2.0, 1.0, 1.0])
        assert not np.shares_memory(graph.adjacency.data, adj.data)
        assert adj.data.tolist() == data
        assert adj.indices.tolist() == indices
        assert adj.indptr.tolist() == indptr


class TestAccessors:
    def test_neighbors_sorted(self, tiny_graph):
        assert list(tiny_graph.neighbors(2)) == [0, 1, 3]

    def test_volume_whole_graph_is_2m(self, tiny_graph):
        assert tiny_graph.volume() == 2 * tiny_graph.m

    def test_volume_subset(self, tiny_graph):
        assert tiny_graph.volume([0, 2]) == 5.0

    def test_vector_volume_uses_support(self, tiny_graph):
        vector = np.zeros(6)
        vector[2] = 0.5
        vector[5] = 1e-12  # non-zero counts
        assert tiny_graph.vector_volume(vector) == 5.0

    def test_degree_scalar(self, tiny_graph):
        assert tiny_graph.degree(3) == 3.0

    def test_is_attributed(self, tiny_graph, plain_graph):
        assert tiny_graph.is_attributed
        assert not plain_graph.is_attributed
        assert plain_graph.d == 0


def _gather_scatter(graph, x, support):
    """Selective ``x P`` from :meth:`transition_gather`, summed per column."""
    cols, contrib = graph.transition_gather(x[support], support)
    return np.bincount(cols, weights=contrib, minlength=graph.n)


class TestTransitionOperators:
    def test_apply_transition_row_stochastic(self, tiny_graph):
        # x P with x = all-ones/d gives the stationary-like spread; mass
        # is conserved because P is row-stochastic.
        x = np.ones(6)
        result = tiny_graph.apply_transition(x)
        assert np.isclose(result.sum(), x.sum())

    def test_apply_transition_matches_dense(self, small_sbm, rng):
        x = rng.random(small_sbm.n)
        dense_p = np.diag(1.0 / small_sbm.degrees) @ small_sbm.adjacency.toarray()
        assert np.allclose(small_sbm.apply_transition(x), x @ dense_p)

    def test_selective_matches_full(self, small_sbm, rng):
        x = np.zeros(small_sbm.n)
        support = rng.choice(small_sbm.n, size=10, replace=False)
        x[support] = rng.random(10)
        full = small_sbm.apply_transition(x)
        selective = _gather_scatter(small_sbm, x, np.sort(support))
        assert np.allclose(full, selective)

    def test_vectorized_selective_pins_reference_loop(self, small_sbm, rng):
        """The np.repeat CSR gather, summed per column in gather order,
        replays the old per-row Python loop bit for bit."""
        from repro.diffusion.reference import reference_selective_scatter

        for size in (1, 7, 40):
            support = np.sort(rng.choice(small_sbm.n, size=size, replace=False))
            x = np.zeros(small_sbm.n)
            x[support] = rng.random(size)
            vectorized = _gather_scatter(small_sbm, x, support)
            loop = reference_selective_scatter(small_sbm, x, support)
            np.testing.assert_array_equal(vectorized, loop)

    def test_inv_degrees_precomputed(self, small_sbm):
        np.testing.assert_array_equal(
            small_sbm.inv_degrees, 1.0 / small_sbm.degrees
        )

    def test_transition_gather_row_major_order(self, tiny_graph):
        support = np.array([0, 2])
        values = np.array([0.5, 1.0])
        cols, contrib = tiny_graph.transition_gather(values, support)
        expected_cols = np.concatenate(
            [tiny_graph.neighbors(0), tiny_graph.neighbors(2)]
        )
        np.testing.assert_array_equal(cols, expected_cols)
        expected = np.concatenate(
            [
                np.full(tiny_graph.neighbors(0).size, 0.5 / tiny_graph.degree(0)),
                np.full(tiny_graph.neighbors(2).size, 1.0 / tiny_graph.degree(2)),
            ]
        )
        np.testing.assert_array_equal(contrib, expected)


class TestKernelSwitch:
    """The volume-based selective/full switch (replaces the old
    row-count heuristic ``|support| <= 64``)."""

    def test_high_degree_small_support_picks_full(self):
        """A star hub: one row covers half the graph's edges.  The old
        row-count heuristic (1 <= 64) would pick the selective kernel;
        the volume rule correctly picks the full mat-vec."""
        from repro.diffusion.base import (
            full_scatter_cost,
            selective_scatter_is_cheaper,
        )

        n = 1000
        edges = [(0, i) for i in range(1, n)]
        star = AttributedGraph.from_edges(n, edges, name="star")
        hub_volume = float(star.degrees[[0]].sum())  # n - 1
        full_cost = full_scatter_cost(star.adjacency.nnz, n)
        assert not selective_scatter_is_cheaper(hub_volume, full_cost)

    def test_low_volume_large_support_picks_selective(self):
        """Many leaves: hundreds of rows but almost no volume — the old
        heuristic (300 > 64) would pay a full mat-vec for nothing."""
        from repro.diffusion.base import (
            full_scatter_cost,
            selective_scatter_is_cheaper,
        )

        n = 1000
        edges = [(0, i) for i in range(1, n)]
        star = AttributedGraph.from_edges(n, edges, name="star")
        leaves = np.arange(1, 301)
        leaf_volume = float(star.degrees[leaves].sum())  # 300 ones
        full_cost = full_scatter_cost(star.adjacency.nnz, n)
        assert selective_scatter_is_cheaper(leaf_volume, full_cost)

    def test_switch_is_output_neutral_on_star(self):
        """Both kernels answer the hub scatter identically, so the
        switch is pure performance (diffusion outputs pinned)."""
        from repro.diffusion import greedy_diffuse
        from repro.diffusion.reference import reference_greedy_diffuse

        n = 300
        rng = np.random.default_rng(5)
        extra = set()
        while len(extra) < 400:
            a, b = rng.integers(1, n, size=2)
            if a != b:
                extra.add((min(a, b), max(a, b)))
        edges = [(0, i) for i in range(1, n)] + sorted(extra)
        star = AttributedGraph.from_edges(n, edges, name="starry")
        f = np.zeros(n)
        f[0] = 1.0
        new = greedy_diffuse(star, f, alpha=0.8, epsilon=1e-4)
        old = reference_greedy_diffuse(star, f, alpha=0.8, epsilon=1e-4)
        np.testing.assert_array_equal(new.q, old.q)
        np.testing.assert_array_equal(new.residual, old.residual)


class TestGroundTruth:
    def test_cluster_contains_seed(self, tiny_graph):
        cluster = tiny_graph.ground_truth_cluster(0)
        assert 0 in cluster
        assert set(cluster) == {0, 1, 2}

    def test_requires_communities(self):
        graph = AttributedGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(ValueError, match="communities"):
            graph.ground_truth_cluster(0)

    def test_secondary_membership_unions(self):
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]
        communities = np.array([0, 0, 0, 1, 1, 1])
        secondary = np.array([1, -1, -1, -1, -1, -1])
        graph = AttributedGraph.from_edges(
            6, edges, communities=communities, secondary_communities=secondary
        )
        # Node 0 belongs to both communities: Ys spans everything.
        assert set(graph.ground_truth_cluster(0)) == set(range(6))
        # Node 1 only belongs to community 0, but node 0's secondary
        # membership pulls node 0 in regardless.
        assert set(graph.ground_truth_cluster(3)) == {0, 3, 4, 5}

    def test_average_ground_truth_size(self, tiny_graph):
        assert tiny_graph.average_ground_truth_size() == 3.0


class TestConversions:
    def test_to_networkx(self, tiny_graph):
        nx_graph = tiny_graph.to_networkx()
        assert nx_graph.number_of_nodes() == 6
        assert nx_graph.number_of_edges() == 7
        assert nx_graph.nodes[0]["community"] == 0
        assert nx_graph.nodes[0]["attributes"].shape == (3,)

    def test_repr_mentions_name(self, tiny_graph):
        assert "tiny" in repr(tiny_graph)
