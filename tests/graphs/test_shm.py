"""Tests for the shared-memory snapshot export (graphs/shm.py).

The contract is bitwise: an attached view is the published snapshot's
arrays byte for byte, so every diffusion run against it must equal the
same diffusion on the original graph exactly.  Cross-process attachment
itself is exercised end-to-end by the pool suite (tests/serving/
test_pool.py); here we pin the manifest round-trip, zero-copy-ness,
immutability, and lifecycle in-process.
"""

import numpy as np
import pytest

from repro.core.config import LacaConfig
from repro.core.pipeline import LACA
from repro.graphs.shm import attach_snapshot, publish_snapshot


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
        assert set(manifest["arrays"]) == {
            "indptr", "indices", "data", "degrees", "inv_degrees",
            "attributes", "tnam_z",
        }

    def test_attached_graph_is_bitwise_identical(self, published):
        graph, _, snapshot = published
        attached = attach_snapshot(snapshot.manifest)
        try:
            view = attached.graph
            assert view.n == graph.n and view.m == graph.m
            assert view.epoch == graph.epoch and view.name == graph.name
            np.testing.assert_array_equal(
                view.adjacency.indptr, graph.adjacency.indptr
            )
            np.testing.assert_array_equal(
                view.adjacency.indices, graph.adjacency.indices
            )
            np.testing.assert_array_equal(view.degrees, graph.degrees)
            np.testing.assert_array_equal(view.inv_degrees, graph.inv_degrees)
            np.testing.assert_array_equal(view.attributes, graph.attributes)
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

    def test_store_snapshot_publishes_its_blocks_unformed(self, rng):
        """A store-made snapshot's attribute blocks go straight into the
        segment: publishing does not form its matrix, and the attached
        matrix is the snapshot's rows bit for bit."""
        from repro.graphs import AttributedGraph, GraphDelta, GraphStore

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
            attached = attach_snapshot(snapshot.manifest)
            try:
                np.testing.assert_array_equal(
                    attached.graph.attributes,
                    np.concatenate(head.attribute_blocks),
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
