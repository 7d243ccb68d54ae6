"""Tests for incremental TNAM maintenance (:meth:`TNAM.update_rows`).

Exactness contract: the maintained factorization's Gram matrix ``Z Zᵀ``
(the only quantity LACA ever reads — Step 2 consumes ``z(i)·z(j)``
inner products exclusively) matches a from-scratch :func:`build_tnam`
on the updated attributes within 1e-10 whenever the touched rows stay in
the retained basis span, and the fallback paths rebuild *bitwise*
identically to a fresh build.
"""

import numpy as np
import pytest

from repro.attributes.tnam import build_tnam
from repro.graphs import GraphDelta


def _unit_rows(rng, n, d):
    rows = np.abs(rng.normal(size=(n, d))) + 0.05
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


@pytest.fixture()
def attrs(rng):
    return _unit_rows(rng, 120, 24)


def _updated(rng, attrs, rows, appended=0):
    """New attribute matrix with ``rows`` rewritten and rows appended.

    Untouched rows are carried over bit-for-bit — the graph layer's
    semantics (it normalizes only touched rows, exactly once).
    """
    d = attrs.shape[1]
    out = np.vstack([attrs, _unit_rows(rng, appended, d)]) if appended else attrs.copy()
    if len(rows):
        out[np.asarray(rows)] = _unit_rows(rng, len(rows), d)
    return out


class TestCosineSvdPath:
    def test_row_update_matches_rebuild_gram(self, rng, attrs):
        """Acceptance (b): incremental update == rebuild within 1e-10."""
        tnam = build_tnam(attrs, k=32, metric="cosine")
        new_attrs = _updated(rng, attrs, [3, 50, 77])
        updated = tnam.update_rows(new_attrs, [3, 50, 77])
        rebuilt = build_tnam(new_attrs, k=32, metric="cosine")
        np.testing.assert_allclose(
            updated.dense_snas(), rebuilt.dense_snas(), atol=1e-10
        )

    def test_appended_rows_match_rebuild_gram(self, rng, attrs):
        new_attrs = _updated(rng, attrs, [], appended=3)
        tnam = build_tnam(attrs, k=32, metric="cosine")
        updated = tnam.update_rows(new_attrs, [120, 121, 122])
        rebuilt = build_tnam(new_attrs, k=32, metric="cosine")
        assert updated.n == 123
        np.testing.assert_allclose(
            updated.dense_snas(), rebuilt.dense_snas(), atol=1e-10
        )

    def test_no_svd_rerun_on_in_span_update(self, rng, attrs, monkeypatch):
        """The incremental path must never pay another factorization."""
        import repro.attributes.tnam as tnam_mod

        tnam = build_tnam(attrs, k=32, metric="cosine")

        def boom(*_a, **_k):  # pragma: no cover - fails the test if hit
            raise AssertionError("update_rows re-ran the SVD")

        monkeypatch.setattr(tnam_mod, "truncated_svd", boom)
        new_attrs = _updated(rng, attrs, [7])
        tnam.update_rows(new_attrs, [7])

    @pytest.mark.parametrize("n", [120, 1200])
    def test_out_of_span_row_triggers_exact_rebuild(self, rng, n):
        """A row the truncated basis cannot express forces a rebuild,
        and the rebuild is bitwise identical to a fresh build — also on
        a tall matrix (n past the exact-branch threshold, d below it)."""
        attrs = _unit_rows(rng, n, 24)
        tnam = build_tnam(attrs, k=8, metric="cosine")
        assert tnam.basis.shape == (8, 24)
        new_attrs = attrs.copy()
        new_attrs[5] = np.eye(24)[23]  # almost surely escapes an 8-dim span
        updated = tnam.update_rows(new_attrs, [5])
        rebuilt = build_tnam(new_attrs, k=8, metric="cosine")
        assert not np.array_equal(updated.basis, tnam.basis)
        np.testing.assert_array_equal(updated.z, rebuilt.z)

    def test_laca_clusters_identical_after_update(self, rng, small_sbm):
        """Acceptance (b): LACA clusters identically on the maintained
        and the rebuilt TNAM."""
        from repro.core.config import LacaConfig
        from repro.core.laca import laca_scores

        config = LacaConfig(k=32)
        attrs = small_sbm.attributes
        tnam = build_tnam(attrs, k=32, metric="cosine")
        new_attrs = attrs.copy()
        new_attrs[[10, 40]] = _unit_rows(rng, 2, attrs.shape[1])
        graph = type(small_sbm)(
            adjacency=small_sbm.adjacency,
            attributes=new_attrs,
            communities=small_sbm.communities,
            name=small_sbm.name,
        )
        updated = tnam.update_rows(graph.attributes, [10, 40])
        rebuilt = build_tnam(graph.attributes, k=32, metric="cosine")
        for seed in (0, 10, 41, 77):
            a = laca_scores(graph, seed, config=config, tnam=updated)
            b = laca_scores(graph, seed, config=config, tnam=rebuilt)
            np.testing.assert_array_equal(a.cluster(25), b.cluster(25))


class TestOtherPaths:
    def test_without_svd_is_exact(self, rng, attrs):
        tnam = build_tnam(attrs, k=32, metric="cosine", use_svd=False)
        assert tnam.basis is None
        new_attrs = _updated(rng, attrs, [2, 9], appended=1)
        updated = tnam.update_rows(new_attrs, [2, 9, 120], use_svd=False)
        rebuilt = build_tnam(new_attrs, k=32, metric="cosine", use_svd=False)
        np.testing.assert_array_equal(updated.z, rebuilt.z)

    def test_exp_cosine_rebuilds_bitwise(self, rng, attrs):
        """ORF features are not rotation-stable, so exp-cosine updates
        fall back to a full rebuild — deterministic, hence bitwise."""
        tnam = build_tnam(attrs, k=16, metric="exp_cosine")
        new_attrs = _updated(rng, attrs, [4])
        updated = tnam.update_rows(new_attrs, [4])
        rebuilt = build_tnam(new_attrs, k=16, metric="exp_cosine")
        np.testing.assert_array_equal(updated.z, rebuilt.z)

    def test_legacy_state_without_y_rebuilds(self, rng, attrs):
        from repro.attributes.tnam import TNAM

        fresh = build_tnam(attrs, k=16, metric="cosine")
        legacy = TNAM(z=fresh.z, metric="cosine", k=16)  # no y / basis
        new_attrs = _updated(rng, attrs, [0])
        updated = legacy.update_rows(new_attrs, [0])
        rebuilt = build_tnam(new_attrs, k=16, metric="cosine")
        np.testing.assert_array_equal(updated.z, rebuilt.z)


class TestUpdateViaDelta:
    def test_structural_delta_is_identity(self, attrs):
        tnam = build_tnam(attrs, k=16, metric="cosine")
        delta = GraphDelta(add_edges=[(0, 50)], remove_edges=[])
        assert tnam.update(delta, attrs) is tnam

    def test_attribute_delta_routes_rows(self, rng, attrs):
        tnam = build_tnam(attrs, k=32, metric="cosine")
        new_attrs = _updated(rng, attrs, [8])
        delta = GraphDelta(set_attributes=([8], new_attrs[[8]]))
        updated = tnam.update(delta, new_attrs)
        rebuilt = build_tnam(new_attrs, k=32, metric="cosine")
        np.testing.assert_allclose(
            updated.dense_snas(), rebuilt.dense_snas(), atol=1e-10
        )


class TestValidation:
    def test_shrinking_attributes_rejected(self, attrs):
        tnam = build_tnam(attrs, k=16, metric="cosine")
        with pytest.raises(ValueError, match="append-only"):
            tnam.update_rows(attrs[:100], [0])

    def test_appended_rows_must_be_listed(self, rng, attrs):
        tnam = build_tnam(attrs, k=16, metric="cosine")
        new_attrs = _updated(rng, attrs, [], appended=2)
        with pytest.raises(ValueError, match="appended"):
            tnam.update_rows(new_attrs, [120])  # forgot row 121

    def test_out_of_range_row_rejected(self, attrs):
        tnam = build_tnam(attrs, k=16, metric="cosine")
        with pytest.raises(ValueError, match="out of range"):
            tnam.update_rows(attrs, [200])

    def test_empty_rows_same_shape_is_identity(self, attrs):
        tnam = build_tnam(attrs, k=16, metric="cosine")
        assert tnam.update_rows(attrs, []) is tnam
