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
from hypothesis import given, settings, strategies as st

from repro.graphs import AttributedGraph, GraphDelta, GraphStore
from repro.graphs.graph import ATTRIBUTE_BLOCK_ROWS


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


def _assert_structure_parity(snapshot, reference):
    """CSR arrays (dtypes included), degrees and ``inv_degrees`` equal
    bit for bit."""
    for name in ("indptr", "indices", "data"):
        got = getattr(snapshot.adjacency, name)
        want = getattr(reference.adjacency, name)
        assert got.dtype == want.dtype, name
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(snapshot.degrees, reference.degrees)
    np.testing.assert_array_equal(snapshot.inv_degrees, reference.inv_degrees)


def _assert_snapshot_parity(snapshot, n, edge_set, raw_attrs, communities):
    """Head snapshot == from_edges(final state), bit for bit."""
    reference = AttributedGraph.from_edges(
        n, sorted(edge_set),
        attributes=None if raw_attrs is None else raw_attrs.copy(),
        communities=communities,
        name=snapshot.name,
    )
    _assert_structure_parity(snapshot, reference)
    if raw_attrs is None:
        assert snapshot.attributes is None
    else:
        np.testing.assert_array_equal(snapshot.attributes, reference.attributes)
    if communities is None:
        assert snapshot.communities is None
    else:
        np.testing.assert_array_equal(snapshot.communities, reference.communities)


class TestDeltaSequenceParity:
    def test_random_delta_sequences_match_from_edges(self, rng):
        """Acceptance (a): any delta sequence == from_edges on the final
        edge set."""
        graph, edge_set, raw, communities = _random_base(rng)
        store = GraphStore(graph)
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

    def test_appended_nodes_wired_only_to_each_other(self, plain_graph):
        """No old row is touched: both new rows land past the old entries."""
        store = GraphStore(plain_graph)
        n = plain_graph.n
        head = store.apply(GraphDelta(
            add_nodes=2, add_edges=[(n + 1, n)], add_communities=[0, 1]
        ))
        reference = AttributedGraph.from_edges(
            n + 2, np.vstack([plain_graph.edge_list(), [[n, n + 1]]])
        )
        _assert_structure_parity(head, reference)

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

    def test_first_absent_entry_in_directed_order_is_named(self, tiny_graph):
        store = GraphStore(tiny_graph)
        with pytest.raises(
            ValueError, match=r"cannot remove edge \(1, 4\): not present"
        ):
            store.apply(GraphDelta(remove_edges=[(4, 1), (5, 4), (0, 1)]))
        assert store.epoch == tiny_graph.epoch

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

    def test_empty_set_attributes_is_a_validated_noop(self, tiny_graph):
        delta = GraphDelta(set_attributes=([], np.empty((0, tiny_graph.d))))
        assert delta.set_attributes[1].shape == (0, tiny_graph.d)
        store = GraphStore(tiny_graph)
        head = store.apply(delta)
        assert head.epoch == 1
        assert all(
            new is old
            for new, old in zip(head.attribute_blocks, tiny_graph.attribute_blocks)
        )
        np.testing.assert_array_equal(head.attributes, tiny_graph.attributes)
        assert store.attribute_rows_since(0).size == 0
        with pytest.raises(ValueError, match="columns"):
            store.apply(GraphDelta(set_attributes=([], np.empty((0, 5)))))

    def test_empty_add_attributes_is_a_validated_noop(self, tiny_graph):
        delta = GraphDelta(add_nodes=0, add_attributes=np.empty((0, tiny_graph.d)))
        assert delta.add_attributes.shape == (0, tiny_graph.d)
        store = GraphStore(tiny_graph)
        head = store.apply(delta)
        assert head.n == tiny_graph.n and head.epoch == 1
        np.testing.assert_array_equal(head.attributes, tiny_graph.attributes)
        assert store.attribute_rows_since(0).size == 0

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


class TestAttributeBlockSharing:
    """Snapshots hold their attribute rows in fixed row blocks; a delta
    copies only the blocks it rewrites and shares the rest by identity."""

    def test_row_delta_copies_exactly_the_dirty_blocks(self, rng):
        size = ATTRIBUTE_BLOCK_ROWS
        n = 16 * size + 300  # 17 blocks, the last one partial
        graph, _, _, _ = _random_base(rng, n=n, d=4)
        parent = graph.attribute_blocks
        assert len(parent) == 17 and parent[-1].shape[0] == 300
        # two rows share block 0, a block boundary, the last partial block
        rows = np.array([5, 6, 1023, 1024, 4000, 9000, 16383, 16600])
        store = GraphStore(graph)
        head = store.apply(GraphDelta(set_attributes=(rows, _unit(rng, 8, 4))))
        dirty = set((rows // size).tolist())
        assert dirty == {0, 1, 3, 8, 15, 16}
        assert len(head.attribute_blocks) == 17
        for b, (new, old) in enumerate(zip(head.attribute_blocks, parent)):
            assert (new is not old) == (b in dirty), b
        assert "attributes" not in vars(head)  # the matrix is not formed

    def test_append_copies_only_a_partial_last_block(self, rng):
        size = ATTRIBUTE_BLOCK_ROWS
        graph, _, _, communities = _random_base(rng, n=2 * size, d=4)
        store = GraphStore(graph)
        n = graph.n
        head = store.apply(GraphDelta(
            add_nodes=3, add_edges=[(n, 0), (n + 1, 1), (n + 2, 2)],
            add_attributes=_unit(rng, 3, 4), add_communities=[0, 1, 2],
        ))
        assert head.attribute_blocks[:2] == graph.attribute_blocks
        assert all(
            new is old
            for new, old in zip(head.attribute_blocks, graph.attribute_blocks)
        )
        assert [b.shape[0] for b in head.attribute_blocks] == [size, size, 3]
        tail = head.attribute_blocks[2]
        head2 = store.apply(GraphDelta(
            add_nodes=1, add_edges=[(n + 3, 0)],
            add_attributes=_unit(rng, 1, 4), add_communities=[3],
        ))
        assert head2.attribute_blocks[:2] == head.attribute_blocks[:2]
        assert head2.attribute_blocks[2] is not tail
        assert tail.shape[0] == 3  # the parent's partial block is untouched

    def test_edge_delta_shares_blocks_and_formed_matrix(self, rng):
        graph, _, _, _ = _random_base(rng, n=60)
        store = GraphStore(graph)
        head = store.apply(GraphDelta(add_edges=[(0, 30)]))
        assert head.attribute_blocks is graph.attribute_blocks
        assert head.attributes is graph.attributes


def _unit(rng, n, d):
    return np.abs(rng.normal(size=(n, d))) + 0.05


def _ring_graph(rng, n, d):
    edges = {(i, (i + 1) % n) if i < n - 1 else (0, n - 1) for i in range(n)}
    for u, v in rng.integers(0, n, (n // 4, 2)):
        if u != v:
            edges.add((int(min(u, v)), int(max(u, v))))
    raw = _unit(rng, n, d)
    graph = AttributedGraph.from_edges(
        n, sorted(edges), attributes=raw.copy(), name="blocks"
    )
    return graph, edges, raw


@settings(max_examples=25, deadline=None)
@given(
    n0=st.integers(ATTRIBUTE_BLOCK_ROWS - 3, 2 * ATTRIBUTE_BLOCK_ROWS + 3),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_block_sharing_keeps_every_snapshot_bitwise(n0, seed, data):
    """Random sequences of row rewrites (on block boundaries, in the last
    partial block), appends that fill the last block or open a new one,
    and edge edits: after each delta the head's attributes are bitwise
    ``from_edges`` on the same final state, every earlier snapshot's
    blocks still hold its rows bit for bit, and ``LACA.refresh`` is
    bitwise a fresh fit."""
    from repro.core.config import LacaConfig
    from repro.core.pipeline import LACA

    size, d = ATTRIBUTE_BLOCK_ROWS, 6
    rng = np.random.default_rng(seed)
    graph, edges, raw = _ring_graph(rng, n0, d)
    store = GraphStore(graph)
    config = LacaConfig(k=3)
    model = LACA(config).fit(graph)
    history = [(graph, graph.attributes.copy())]
    for _ in range(data.draw(st.integers(1, 4), label="deltas")):
        n = raw.shape[0]
        landmarks = [r for r in (0, size - 1, size, n - 1, n // size * size) if r < n]
        rewritten = sorted(set(data.draw(
            st.lists(
                st.one_of(st.sampled_from(landmarks), st.integers(0, n - 1)),
                max_size=6,
            ),
            label="rewritten",
        )))
        to_fill = -n % size or size
        appended = data.draw(
            st.sampled_from([0, 1, 5, to_fill, to_fill + 1]), label="appended"
        )
        adds = [
            (int(u), int(v)) for u, v in rng.integers(0, n, (data.draw(
                st.integers(0, 4), label="added edges"), 2))
            if u != v and (min(u, v), max(u, v)) not in edges
        ]
        adds += [(n + i, int(rng.integers(0, n))) for i in range(appended)]
        removes = []
        if data.draw(st.booleans(), label="remove an edge"):
            degree = np.zeros(n, dtype=int)
            for u, v in edges:
                degree[u] += 1
                degree[v] += 1
            for u, v in sorted(edges):
                if degree[u] > 1 and degree[v] > 1:
                    removes.append((u, v))
                    break
        new_rows = _unit(rng, len(rewritten), d)
        added_rows = _unit(rng, appended, d)
        head = store.apply(GraphDelta(
            add_edges=np.asarray(adds, dtype=np.int64).reshape(-1, 2),
            remove_edges=np.asarray(removes, dtype=np.int64).reshape(-1, 2),
            add_nodes=appended,
            add_attributes=added_rows if appended else None,
            set_attributes=(rewritten, new_rows) if rewritten else None,
        ))
        raw = np.vstack([raw, added_rows])
        raw[rewritten] = new_rows
        edges |= {(min(u, v), max(u, v)) for u, v in adds}
        edges -= set(removes)
        reference = AttributedGraph.from_edges(
            raw.shape[0], sorted(edges), attributes=raw.copy(), name="blocks"
        )
        for snapshot, matrix in history:
            np.testing.assert_array_equal(
                np.concatenate(snapshot.attribute_blocks), matrix
            )
        np.testing.assert_array_equal(head.attributes, reference.attributes)
        history.append((head, reference.attributes))
        model.refresh(store)
        fresh = LACA(config).fit(head)
        np.testing.assert_array_equal(model.tnam.z, fresh.tnam.z)
        np.testing.assert_array_equal(model.tnam.basis, fresh.tnam.basis)


def _removable(edges, degree, candidates, limit):
    """Up to ``limit`` of ``candidates`` whose removal isolates no node
    (``degree`` is updated in place)."""
    chosen = []
    for u, v in candidates:
        if len(chosen) == limit:
            break
        if (u, v) in edges and degree[u] > 1 and degree[v] > 1:
            chosen.append((u, v))
            degree[u] -= 1
            degree[v] -= 1
    return chosen


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_splice_matches_from_edges_on_any_delta(seed, data):
    """Random sequences of 1-4 deltas, each of 0 to a few thousand
    directed entries (on both sides of 4096), mixing removals of a row's
    first and last entries, several additions into one row, additions
    already present, appended nodes wired to old and to each other, and
    one row whose every entry is removed and refilled in each delta that
    rewires it: after each delta the head's CSR arrays (dtypes
    included), degrees and ``inv_degrees`` are bitwise ``from_edges``
    on the same edge set."""
    rng = np.random.default_rng(seed)
    n = data.draw(st.integers(300, 600), label="nodes")
    edges = {(i, i + 1) for i in range(n - 1)} | {(0, n - 1)}
    for u, v in rng.integers(0, n, (3 * n, 2)):
        if u != v:
            edges.add((int(min(u, v)), int(max(u, v))))
    store = GraphStore(AttributedGraph.from_edges(n, sorted(edges)))
    rewired = int(rng.integers(0, n))
    for _ in range(data.draw(st.integers(1, 4), label="deltas")):
        size = data.draw(
            st.sampled_from(["empty", "small", "medium", "large"]), label="size"
        )
        n_adds, n_removes = {
            "empty": (0, 0),
            "small": (int(rng.integers(0, 12)), int(rng.integers(0, 12))),
            "medium": (int(rng.integers(100, 300)), int(rng.integers(50, 150))),
            "large": (int(rng.integers(1500, 1700)), int(rng.integers(600, 700))),
        }[size]
        degree = np.zeros(n, dtype=np.int64)
        for u, v in edges:
            degree[u] += 1
            degree[v] += 1
        adjacency = store.head.adjacency

        def neighbors(node):
            return adjacency.indices[
                adjacency.indptr[node] : adjacency.indptr[node + 1]
            ].tolist()

        order = sorted(edges)
        picked = rng.permutation(len(order))[:n_removes]
        removes = _removable(edges, degree, [order[i] for i in picked], n_removes)
        adds = set()
        if size != "empty" and data.draw(st.booleans(), label="row ends"):
            row = int(rng.integers(0, n))
            ends = [neighbors(row)[0], neighbors(row)[-1]]
            pairs = [(min(row, c), max(row, c)) for c in ends]
            removes += _removable(
                edges, degree, [p for p in pairs if p not in removes], 2
            )
        if size != "empty" and data.draw(st.booleans(), label="rewire a row"):
            # Every entry of the row goes; fresh ones refill it.
            pairs = [(min(rewired, c), max(rewired, c)) for c in neighbors(rewired)]
            degree[rewired] += len(pairs)  # the refill keeps it connected
            removes += _removable(
                edges, degree, [p for p in pairs if p not in removes], len(pairs)
            )
            while len(adds) < 3:
                c = int(rng.integers(0, n))
                if c != rewired and (min(rewired, c), max(rewired, c)) not in edges:
                    adds.add((min(rewired, c), max(rewired, c)))
        if size != "empty" and data.draw(st.booleans(), label="one row"):
            row = int(rng.integers(0, n))
            for c in rng.choice(n, 8, replace=False):
                if c != row and (min(row, c), max(row, c)) not in edges:
                    adds.add((min(row, int(c)), max(row, int(c))))
        while len(adds) < n_adds:
            u, v = (int(x) for x in rng.integers(0, n, 2))
            if u != v and (min(u, v), max(u, v)) not in edges:
                adds.add((min(u, v), max(u, v)))
        removed = set(removes)
        present = []
        if size != "empty" and data.draw(st.booleans(), label="present"):
            present = [order[i] for i in rng.integers(0, len(order), 5)]
            present = [p for p in present if p not in removed]
        appended = 0
        if size != "empty" and data.draw(st.booleans(), label="append"):
            appended = int(rng.integers(1, 4))
            for i in range(appended):
                adds.add((int(rng.integers(0, n)), n + i))
            if appended > 1:
                adds.add((n, n + appended - 1))
        head = store.apply(GraphDelta(
            add_edges=np.asarray(sorted(adds) + present, dtype=np.int64).reshape(-1, 2),
            remove_edges=np.asarray(removes, dtype=np.int64).reshape(-1, 2),
            add_nodes=appended,
        ))
        n += appended
        edges = (edges - removed) | adds
        reference = AttributedGraph.from_edges(n, sorted(edges))
        _assert_structure_parity(head, reference)
