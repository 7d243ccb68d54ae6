"""Tests for the versioned graph store: delta parity, epochs, atomicity.

The load-bearing guarantee is *bitwise* parity: after any sequence of
deltas, the store's head snapshot must be indistinguishable — adjacency
structure, degrees, ``inv_degrees``, attributes — from
``AttributedGraph.from_edges`` called on the final edge set, because the
diffusion engines promise bitwise-identical outputs and anything the
store perturbs would surface as a serving regression.
"""

import numpy as np
import pytest

from repro.graphs import AttributedGraph, GraphDelta, GraphStore


def _random_base(rng, n=60, d=6, attributed=True):
    """Connected-ish random graph plus its raw (pre-normalization) attrs."""
    edges = {(i, (i + 1) % n) for i in range(n)}
    while len(edges) < 3 * n:
        u, v = (int(x) for x in rng.integers(0, n, 2))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    edges = sorted(edges)
    raw = np.abs(rng.normal(size=(n, d))) + 0.05 if attributed else None
    communities = rng.integers(0, 4, n) if attributed else None
    graph = AttributedGraph.from_edges(
        n, edges,
        attributes=None if raw is None else raw.copy(),
        communities=communities,
        name="store-base",
    )
    return graph, set(edges), raw, communities


def _assert_snapshot_parity(snapshot, n, edge_set, raw_attrs, communities):
    """Head snapshot == from_edges(final state), bit for bit."""
    reference = AttributedGraph.from_edges(
        n, sorted(edge_set),
        attributes=None if raw_attrs is None else raw_attrs.copy(),
        communities=communities,
        name=snapshot.name,
    )
    np.testing.assert_array_equal(
        snapshot.adjacency.indptr, reference.adjacency.indptr
    )
    np.testing.assert_array_equal(
        snapshot.adjacency.indices, reference.adjacency.indices
    )
    np.testing.assert_array_equal(
        snapshot.adjacency.data, reference.adjacency.data
    )
    np.testing.assert_array_equal(snapshot.degrees, reference.degrees)
    np.testing.assert_array_equal(snapshot.inv_degrees, reference.inv_degrees)
    if raw_attrs is None:
        assert snapshot.attributes is None
    else:
        np.testing.assert_array_equal(snapshot.attributes, reference.attributes)
    if communities is None:
        assert snapshot.communities is None
    else:
        np.testing.assert_array_equal(snapshot.communities, reference.communities)


class TestDeltaSequenceParity:
    @pytest.mark.parametrize("patch_limit", [4096, 0])
    def test_random_delta_sequences_match_from_edges(self, rng, patch_limit):
        """Acceptance (a): any delta sequence == from_edges on the final
        edge set, through both the splice and compaction merge paths."""
        graph, edge_set, raw, communities = _random_base(rng)
        store = GraphStore(graph, patch_limit=patch_limit)
        n = graph.n
        for step in range(8):
            # additions: fresh random pairs
            adds = []
            while len(adds) < 3:
                u, v = (int(x) for x in rng.integers(0, n, 2))
                if u != v and (min(u, v), max(u, v)) not in edge_set:
                    adds.append((u, v))
            # removals: existing edges whose endpoints keep degree >= 2
            degrees = {u: 0 for u in range(n)}
            for u, v in edge_set:
                degrees[u] += 1
                degrees[v] += 1
            rems = []
            for u, v in sorted(edge_set):
                if degrees[u] > 2 and degrees[v] > 2 and len(rems) < 2:
                    rems.append((u, v))
                    degrees[u] -= 1
                    degrees[v] -= 1
            delta_kwargs = dict(add_edges=adds, remove_edges=rems)
            if step % 3 == 1:
                # append a node wired into the graph
                new_raw = np.abs(rng.normal(size=(1, raw.shape[1]))) + 0.05
                anchor = int(rng.integers(0, n))
                anchor2 = (anchor + 7) % n
                delta_kwargs["add_nodes"] = 1
                delta_kwargs["add_attributes"] = new_raw
                delta_kwargs["add_communities"] = [int(rng.integers(0, 4))]
                adds.extend([(n, anchor), (n, anchor2)])
                raw = np.vstack([raw, new_raw])
                communities = np.concatenate(
                    [communities, delta_kwargs["add_communities"]]
                )
                n += 1
            if step % 3 == 2:
                # rewrite an existing attribute row
                target = int(rng.integers(0, n))
                new_row = np.abs(rng.normal(size=(1, raw.shape[1]))) + 0.05
                delta_kwargs["set_attributes"] = ([target], new_row)
                raw = raw.copy()
                raw[target] = new_row
            for u, v in adds:
                edge_set.add((min(u, v), max(u, v)))
            for u, v in rems:
                edge_set.discard((min(u, v), max(u, v)))
            head = store.apply(GraphDelta(**delta_kwargs))
            assert head.epoch == step + 1
            _assert_snapshot_parity(head, n, edge_set, raw, communities)

    def test_patch_and_compaction_paths_identical(self, rng):
        graph, edge_set, raw, _ = _random_base(rng, attributed=False)
        delta = GraphDelta(
            add_edges=[(0, 30), (5, 45)], remove_edges=[sorted(edge_set)[10]]
        )
        patched = GraphStore(graph, patch_limit=4096).apply(delta)
        compact_store = GraphStore(graph, patch_limit=0)
        compacted = compact_store.apply(delta)
        assert compact_store.compactions == 1
        np.testing.assert_array_equal(
            patched.adjacency.indptr, compacted.adjacency.indptr
        )
        np.testing.assert_array_equal(
            patched.adjacency.indices, compacted.adjacency.indices
        )
        np.testing.assert_array_equal(patched.degrees, compacted.degrees)

    def test_non_attributed_graph(self, plain_graph):
        store = GraphStore(plain_graph)
        head = store.apply(GraphDelta(add_edges=[(0, 100)]))
        assert head.m == plain_graph.m + 1
        assert head.attributes is None


class TestDeltaSemantics:
    def test_adding_existing_edge_is_noop(self, tiny_graph):
        store = GraphStore(tiny_graph)
        head = store.apply(GraphDelta(add_edges=[(0, 1)]))
        assert head.m == tiny_graph.m
        assert head.epoch == 1  # the epoch still advances

    def test_removing_absent_edge_raises(self, tiny_graph):
        store = GraphStore(tiny_graph)
        with pytest.raises(ValueError, match="not present"):
            store.apply(GraphDelta(remove_edges=[(0, 5)]))

    def test_add_and_remove_same_edge_rejected(self):
        with pytest.raises(ValueError, match="adds and removes"):
            GraphDelta(add_edges=[(0, 1)], remove_edges=[(1, 0)])

    def test_duplicate_set_attribute_rejected(self):
        with pytest.raises(ValueError, match="twice"):
            GraphDelta(set_attributes=([3, 3], np.ones((2, 4))))

    def test_out_of_range_edges_rejected(self, tiny_graph):
        store = GraphStore(tiny_graph)
        with pytest.raises(ValueError, match="only 6 node"):
            store.apply(GraphDelta(add_edges=[(0, 6)]))

    def test_new_attributed_node_requires_attributes(self, tiny_graph):
        store = GraphStore(tiny_graph)
        with pytest.raises(ValueError, match="add_attributes"):
            store.apply(GraphDelta(add_nodes=1, add_edges=[(6, 0)],
                                   add_communities=[0]))

    def test_new_node_requires_communities_when_graph_has_them(self, tiny_graph):
        store = GraphStore(tiny_graph)
        with pytest.raises(ValueError, match="add_communities"):
            store.apply(GraphDelta(
                add_nodes=1, add_edges=[(6, 0)],
                add_attributes=np.ones((1, 3)),
            ))

    def test_attributes_on_plain_graph_rejected(self, plain_graph):
        store = GraphStore(plain_graph)
        with pytest.raises(ValueError, match="no attributes"):
            store.apply(GraphDelta(set_attributes=([0], np.ones((1, 3)))))

    def test_unknown_mapping_key_rejected(self):
        with pytest.raises(ValueError, match="unknown delta field"):
            GraphDelta.from_mapping({"add_edgez": [[0, 1]]})

    def test_from_mapping_round_trip(self):
        delta = GraphDelta.from_mapping({
            "add_edges": [[0, 2]],
            "add_nodes": 1,
            "add_attributes": [[1.0, 0.0]],
            "set_attributes": {"1": [0.5, 0.5]},
        })
        assert delta.add_nodes == 1
        np.testing.assert_array_equal(delta.add_edges, [[0, 2]])
        nodes, rows = delta.set_attributes
        np.testing.assert_array_equal(nodes, [1])
        np.testing.assert_array_equal(rows, [[0.5, 0.5]])


class TestIsolationAndAtomicity:
    def test_deletion_isolating_a_node_names_it(self, tiny_graph):
        """Satellite: the isolated-node error counts and names offenders."""
        store = GraphStore(tiny_graph)
        # node 0's neighbors are 1 and 2; stripping both isolates it
        with pytest.raises(ValueError, match=r"1 isolated node\(s\).*ids: 0"):
            store.apply(GraphDelta(remove_edges=[(0, 1), (0, 2)]))

    def test_failed_apply_leaves_head_untouched(self, tiny_graph):
        store = GraphStore(tiny_graph)
        before = store.head
        with pytest.raises(ValueError):
            store.apply(GraphDelta(remove_edges=[(0, 1), (0, 2)]))
        assert store.head is before
        assert store.epoch == before.epoch

    def test_old_snapshots_survive_updates(self, tiny_graph):
        store = GraphStore(tiny_graph)
        old_m = tiny_graph.m
        old_indices = tiny_graph.adjacency.indices.copy()
        store.apply(GraphDelta(add_edges=[(0, 4)]))
        store.apply(GraphDelta(remove_edges=[(0, 4)]))
        assert tiny_graph.m == old_m
        np.testing.assert_array_equal(tiny_graph.adjacency.indices, old_indices)

    def test_weighted_adjacency_rejected(self):
        import scipy.sparse as sp

        adj = sp.csr_matrix(np.array([[0.0, 2.0], [2.0, 0.0]]))
        weighted = AttributedGraph(adjacency=adj, name="weighted")
        with pytest.raises(ValueError, match="binary"):
            GraphStore(weighted)


class TestEpochBookkeeping:
    def test_epochs_increment_and_head_tracks(self, tiny_graph):
        store = GraphStore(tiny_graph)
        assert store.epoch == 0
        g1 = store.apply(GraphDelta(add_edges=[(0, 4)]))
        g2 = store.apply(GraphDelta(add_edges=[(1, 5)]))
        assert (g1.epoch, g2.epoch) == (1, 2)
        assert store.head is g2

    def test_attribute_rows_since(self, tiny_graph):
        store = GraphStore(tiny_graph)
        store.apply(GraphDelta(add_edges=[(0, 4)]))
        store.apply(GraphDelta(set_attributes=([2], np.ones((1, 3)))))
        np.testing.assert_array_equal(store.attribute_rows_since(0), [2])
        np.testing.assert_array_equal(store.attribute_rows_since(1), [2])
        assert store.attribute_rows_since(2).size == 0

    def test_attribute_rows_since_unions_deltas(self, tiny_graph):
        store = GraphStore(tiny_graph)
        store.apply(GraphDelta(set_attributes=([4], np.ones((1, 3)))))
        store.apply(GraphDelta(set_attributes=([1, 4], np.ones((2, 3)))))
        store.apply(GraphDelta(remove_edges=[(0, 1)]))
        np.testing.assert_array_equal(store.attribute_rows_since(0), [1, 4])
        np.testing.assert_array_equal(store.attribute_rows_since(1), [1, 4])
        assert store.attribute_rows_since(2).size == 0
        assert store.attribute_rows_since(3).size == 0

    def test_attribute_rows_since_counts_appended_nodes(self, tiny_graph):
        """An appended node's attribute row is new to the TNAM, so it is
        logged with the rows a delta rewrites."""
        store = GraphStore(tiny_graph)
        store.apply(GraphDelta(
            add_nodes=2,
            add_edges=[(6, 0), (7, 6)],
            add_attributes=np.ones((2, 3)),
            add_communities=[0, 0],
            set_attributes=([5], np.ones((1, 3))),
        ))
        np.testing.assert_array_equal(store.attribute_rows_since(0), [5, 6, 7])

    def test_history_eviction_returns_none(self, tiny_graph):
        store = GraphStore(tiny_graph, history=2)
        for i in range(4):
            store.apply(GraphDelta(set_attributes=([i % 6], np.ones((1, 3)))))
        assert store.attribute_rows_since(0) is None
        np.testing.assert_array_equal(store.attribute_rows_since(3), [3])

    def test_epoch_ahead_of_head_raises(self, tiny_graph):
        store = GraphStore(tiny_graph)
        with pytest.raises(ValueError, match="ahead"):
            store.attribute_rows_since(1)

    def test_epoch_round_trips_through_graph_io(self, tiny_graph, tmp_path):
        from repro.graphs.io import load_graph, save_graph

        store = GraphStore(tiny_graph)
        head = store.apply(GraphDelta(add_edges=[(0, 4)]))
        path = save_graph(head, tmp_path / "g")
        assert load_graph(path).epoch == 1
