"""Tests for the shared-memory snapshot export (graphs/shm.py).

The contract is bitwise: an attached view is the published snapshot's
arrays byte for byte, so every diffusion run against it must equal the
same diffusion on the original graph exactly.  Cross-process attachment
itself is exercised end-to-end by the pool suite (tests/serving/
test_pool.py); here we pin the manifest round-trip, zero-copy-ness,
immutability, segment recycling, and lifecycle in-process.
"""

from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.core.config import LacaConfig
from repro.core.pipeline import LACA
from repro.graphs import AttributedGraph, GraphDelta, GraphStore
from repro.graphs.shm import SEGMENT_HEADROOM, attach_snapshot, publish_snapshot

WORKER_ARRAYS = {"indptr", "indices", "data", "degrees", "inv_degrees", "tnam_z"}


def _names(snapshot) -> dict[str, str]:
    return {key: spec["segment"] for key, spec in snapshot.manifest["arrays"].items()}


def _exists(name: str) -> bool:
    try:
        segment = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    segment.close()
    return True


def _assert_views_equal(attached, graph, tnam_z) -> None:
    view = attached.graph
    assert view.n == graph.n and view.epoch == graph.epoch
    np.testing.assert_array_equal(view.adjacency.indptr, graph.adjacency.indptr)
    np.testing.assert_array_equal(view.adjacency.indices, graph.adjacency.indices)
    np.testing.assert_array_equal(view.adjacency.data, graph.adjacency.data)
    np.testing.assert_array_equal(view.degrees, graph.degrees)
    np.testing.assert_array_equal(view.inv_degrees, graph.inv_degrees)
    np.testing.assert_array_equal(attached.tnam_z, tnam_z)


@pytest.fixture()
def published(small_sbm):
    model = LACA(LacaConfig(k=8)).fit(small_sbm)
    snapshot = publish_snapshot(small_sbm, tnam_z=model.tnam.z)
    yield small_sbm, model, snapshot
    snapshot.close()


class TestRoundTrip:
    def test_manifest_is_plain_and_picklable(self, published):
        import pickle

        _, _, snapshot = published
        manifest = pickle.loads(pickle.dumps(snapshot.manifest))
        assert manifest == snapshot.manifest
        # Only what a worker reads: no n x d attribute matrix.
        assert set(manifest["arrays"]) == WORKER_ARRAYS
        assert manifest["attributed"] is True

    def test_attached_graph_is_bitwise_identical(self, published):
        graph, model, snapshot = published
        attached = attach_snapshot(snapshot.manifest)
        try:
            view = attached.graph
            assert view.m == graph.m and view.name == graph.name
            assert view.is_attributed
            _assert_views_equal(attached, graph, model.tnam.z)
        finally:
            attached.close()

    def test_attached_attributed_graph_refuses_its_rows(self, published):
        """The rows were not published: reading them raises, and never
        passes for a non-attributed graph (``None``)."""
        _, _, snapshot = published
        attached = attach_snapshot(snapshot.manifest)
        try:
            view = attached.graph
            assert view.is_attributed
            with pytest.raises(RuntimeError, match="not published"):
                view.attributes
            with pytest.raises(RuntimeError, match="not published"):
                getattr(view, "attributes", None)
            with pytest.raises(RuntimeError, match="not published"):
                view.attribute_blocks[0]
            with pytest.raises(RuntimeError, match="not published"):
                view.d
        finally:
            attached.close()

    def test_queries_on_attached_view_are_bitwise_equal(self, published):
        graph, model, snapshot = published
        attached = attach_snapshot(snapshot.manifest)
        try:
            hydrated = LACA.from_fit_state(model.fit_state(), attached.graph)
            for seed in (0, 17, 64):
                np.testing.assert_array_equal(
                    hydrated.cluster(seed, 20), model.cluster(seed, 20)
                )
        finally:
            attached.close()

    def test_store_snapshot_publishes_no_attribute_rows(self, rng):
        """Publishing a store-made snapshot neither forms its attribute
        matrix nor exports its rows, and the attached view still takes
        the SNAS path: it is bitwise the snapshot where it is read."""
        n, d = 2 * 1024 + 50, 4
        ring = [(i, (i + 1) % n) for i in range(n)]
        graph = AttributedGraph.from_edges(
            n, ring, attributes=np.abs(rng.normal(size=(n, d))) + 0.05
        )
        head = GraphStore(graph).apply(GraphDelta(
            set_attributes=([3, 2049], np.ones((2, d)))
        ))
        snapshot = publish_snapshot(head)
        try:
            assert "attributes" not in vars(head)
            assert "attributes" not in snapshot.manifest["arrays"]
            attached = attach_snapshot(snapshot.manifest)
            try:
                assert attached.graph.is_attributed
                assert attached.graph.epoch == head.epoch == 1
                np.testing.assert_array_equal(
                    attached.graph.adjacency.indices, head.adjacency.indices
                )
            finally:
                attached.close()
        finally:
            snapshot.close()

    def test_non_attributed_graph_round_trips(self, plain_graph):
        snapshot = publish_snapshot(plain_graph)
        try:
            attached = attach_snapshot(snapshot.manifest)
            try:
                assert attached.graph.attributes is None
                assert attached.tnam_z is None
                np.testing.assert_array_equal(
                    attached.graph.adjacency.toarray(),
                    plain_graph.adjacency.toarray(),
                )
            finally:
                attached.close()
        finally:
            snapshot.close()


def _grown(graph, births: int, rng) -> AttributedGraph:
    """``graph`` after one delta appending ``births`` attributed nodes,
    each tied to node 0."""
    n = graph.n
    return GraphStore(graph).apply(GraphDelta(
        add_nodes=births,
        add_edges=[(n + i, 0) for i in range(births)],
        add_attributes=np.abs(rng.normal(size=(births, graph.d))) + 0.05,
        add_communities=np.zeros(births, dtype=np.int64),
    ))


class TestRecycling:
    def test_recycled_publish_reuses_the_spare_segment_names(self, small_sbm, rng):
        """An array that fits its spare segment is rewritten in place:
        same names, and the attached view is the new snapshot bit for
        bit.  The spare is consumed, so closing it unlinks nothing."""
        config = LacaConfig(k=8)
        model = LACA(config).fit(small_sbm)
        spare = publish_snapshot(small_sbm, tnam_z=model.tnam.z)
        names = _names(spare)
        head = _grown(small_sbm, 3, rng)  # 3 of 120 nodes: within the headroom
        head_z = LACA(config).fit(head).tnam.z
        snapshot = publish_snapshot(head, tnam_z=head_z, spare=spare)
        try:
            assert _names(snapshot) == names
            spare.close()  # consumed: a no-op
            attached = attach_snapshot(snapshot.manifest)
            try:
                _assert_views_equal(attached, head, head_z)
            finally:
                attached.close()
        finally:
            snapshot.close()
        assert not any(_exists(name) for name in names.values())

    def test_outgrown_array_gets_a_new_segment_and_the_old_is_unlinked(
        self, small_sbm, rng
    ):
        births = int(small_sbm.n * SEGMENT_HEADROOM) + 8
        head = _grown(small_sbm, births, rng)
        spare = publish_snapshot(small_sbm)
        old_manifest = spare.manifest
        old = _names(spare)
        snapshot = publish_snapshot(head, spare=spare)
        try:
            new = _names(snapshot)
            # The length-n arrays outgrew their segments; the nnz arrays
            # (2 * births more entries of 1076) still fit theirs.
            grown = {"indptr", "degrees", "inv_degrees"}
            assert set(new) == set(old) == grown | {"indices", "data"}
            for key in new:
                assert (new[key] == old[key]) == (key not in grown), key
                assert _exists(old[key]) == (key not in grown), key
            with pytest.raises(FileNotFoundError):
                attach_snapshot(old_manifest)
            attached = attach_snapshot(snapshot.manifest)
            try:
                assert attached.graph.n == head.n
                np.testing.assert_array_equal(attached.graph.degrees, head.degrees)
            finally:
                attached.close()
        finally:
            snapshot.close()

    def test_spare_segment_of_an_absent_key_is_unlinked(self, published):
        graph, _, spare = published
        old = _names(spare)
        snapshot = publish_snapshot(graph, spare=spare)  # no tnam_z this time
        try:
            assert "tnam_z" not in snapshot.manifest["arrays"]
            assert not _exists(old["tnam_z"])
            assert _names(snapshot) == {
                key: name for key, name in old.items() if key != "tnam_z"
            }
        finally:
            snapshot.close()

    def test_failed_recycled_publish_unlinks_both_sets(
        self, published, monkeypatch
    ):
        """A publish that dies part-way has already overwritten some of
        the spare: every segment it wrote, created or was handed is
        unlinked, so neither set leaks."""
        from repro.graphs import shm as shm_module

        graph, model, spare = published
        old = _names(spare)
        real = shm_module._export_array
        calls = {"n": 0}

        def failing(array, reuse=None):
            calls["n"] += 1
            if calls["n"] == 3:
                raise OSError("no space left on device")
            return real(array, reuse)

        monkeypatch.setattr(shm_module, "_export_array", failing)
        with pytest.raises(OSError, match="no space"):
            publish_snapshot(graph, tnam_z=model.tnam.z, spare=spare)
        assert not any(_exists(name) for name in old.values())


class TestLifecycleAndSafety:
    def test_attached_arrays_are_read_only(self, published):
        _, _, snapshot = published
        attached = attach_snapshot(snapshot.manifest)
        try:
            with pytest.raises(ValueError):
                attached.graph.degrees[0] = 99.0
            with pytest.raises(ValueError):
                attached.tnam_z[0, 0] = 1.0
        finally:
            attached.close()

    def test_attached_arrays_are_views_not_copies(self, published):
        """Zero-copy contract: the attached arrays borrow the segment
        buffer instead of materializing a private copy."""
        _, _, snapshot = published
        attached = attach_snapshot(snapshot.manifest)
        try:
            assert not attached.graph.degrees.flags.owndata
            assert not attached.tnam_z.flags.owndata
            assert not attached.graph.adjacency.indices.flags.owndata
        finally:
            attached.close()

    def test_close_is_idempotent_and_unlinks(self, small_sbm):
        snapshot = publish_snapshot(small_sbm)
        manifest = snapshot.manifest
        snapshot.close()
        snapshot.close()
        with pytest.raises(FileNotFoundError):
            attach_snapshot(manifest)

    def test_unknown_manifest_version_rejected(self, published):
        _, _, snapshot = published
        bad = dict(snapshot.manifest, version=999)
        with pytest.raises(ValueError, match="manifest version"):
            attach_snapshot(bad)

    def test_failed_publish_unlinks_created_segments(
        self, small_sbm, monkeypatch
    ):
        """A publish that dies mid-export must not leak the segments it
        already created: their names never reach a caller, so nothing
        could ever unlink them (they would outlive the process in
        /dev/shm).  Regression test for the partial-publish path."""
        from multiprocessing import shared_memory

        from repro.graphs import shm as shm_module

        real = shared_memory.SharedMemory
        created: list[str] = []
        calls = {"n": 0}

        def failing(*args, **kwargs):
            if kwargs.get("create"):
                calls["n"] += 1
                if calls["n"] == 3:  # die after two segments exist
                    raise OSError("no space left on device")
            segment = real(*args, **kwargs)
            if kwargs.get("create"):
                created.append(segment.name)
            return segment

        monkeypatch.setattr(
            shm_module.shared_memory, "SharedMemory", failing
        )
        with pytest.raises(OSError, match="no space"):
            publish_snapshot(small_sbm)
        monkeypatch.undo()
        assert len(created) == 2  # the failure really was mid-publish
        for name in created:  # and both survivors were unlinked
            with pytest.raises(FileNotFoundError):
                real(name=name)

    def test_failed_export_copy_unlinks_its_segment(self, monkeypatch):
        """_export_array's own failure window: the segment is created
        but the copy into it dies.  The name was never returned, so the
        only correct move is close + unlink before re-raising."""
        from multiprocessing import shared_memory

        from repro.graphs.shm import _export_array

        real = shared_memory.SharedMemory
        created: list[str] = []

        def tracking(*args, **kwargs):
            segment = real(*args, **kwargs)
            if kwargs.get("create"):
                created.append(segment.name)
            return segment

        import types

        from repro.graphs import shm as shm_module

        monkeypatch.setattr(
            shm_module.shared_memory, "SharedMemory", tracking
        )

        def no_view(*args, **kwargs):
            raise TypeError("cannot map this dtype onto a buffer")

        # Fail the view construction *after* the segment allocation —
        # the exact window the cleanup covers.
        monkeypatch.setattr(
            shm_module,
            "np",
            types.SimpleNamespace(
                ascontiguousarray=np.ascontiguousarray, ndarray=no_view
            ),
        )
        with pytest.raises(TypeError, match="cannot map"):
            _export_array(np.arange(4.0))
        monkeypatch.undo()
        assert len(created) == 1
        with pytest.raises(FileNotFoundError):
            real(name=created[0])
