"""Tests for incremental TNAM maintenance (:meth:`TNAM.update_rows`).

Exactness contract: on every path the updated TNAM is *bitwise* a
from-scratch :func:`build_tnam` on the updated attributes.  On the
blocked cosine path (``d ≤ min(n, 400)``) that holds because only the
Gram blocks holding a changed row are recomputed and the blocks are
summed in the same order as a fresh build; every other path is a fresh
build.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.attributes.tnam as tnam_mod
from repro import parallel
from repro.attributes.tnam import TNAM, build_tnam
from repro.graphs import GraphDelta
from repro.graphs.graph import ATTRIBUTE_BLOCK_ROWS, row_blocks


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


def _assert_fresh_build(updated, attributes, **kwargs):
    fresh = build_tnam(attributes, **kwargs)
    np.testing.assert_array_equal(updated.z, fresh.z)
    if fresh.basis is None:
        assert updated.basis is None
    else:
        np.testing.assert_array_equal(updated.basis, fresh.basis)


class TestCosineSvdPath:
    def test_row_update_is_bitwise_a_fresh_build(self, rng, attrs):
        tnam = build_tnam(attrs, k=32, metric="cosine")
        new_attrs = _updated(rng, attrs, [3, 50, 77])
        updated = tnam.update_rows(new_attrs, [3, 50, 77])
        assert updated.blocks is not None
        _assert_fresh_build(updated, new_attrs, k=32, metric="cosine")

    def test_appended_rows_are_bitwise_a_fresh_build(self, rng, attrs):
        new_attrs = _updated(rng, attrs, [], appended=3)
        tnam = build_tnam(attrs, k=32, metric="cosine")
        updated = tnam.update_rows(new_attrs, [120, 121, 122])
        assert updated.n == 123
        _assert_fresh_build(updated, new_attrs, k=32, metric="cosine")

    def test_delta_recomputes_only_dirty_blocks(self, rng, monkeypatch):
        """An 8-row delta on 17 blocks recomputes the Gram partials of
        exactly the blocks holding those rows; clean blocks keep their
        arrays."""
        attrs = _unit_rows(rng, 16 * 1024 + 300, 24)
        tnam = build_tnam(attrs, k=8, metric="cosine")
        size = tnam.blocks.rows
        assert size == 1024 and len(tnam.blocks.grams) == 17
        # two rows share block 0, a block boundary, the last partial block
        rows = np.array([5, 6, 1023, 1024, 4000, 9000, 16383, 16600])
        new_attrs = _updated(rng, attrs, rows)
        dirty = set((rows // size).tolist())
        assert dirty == {0, 1, 3, 8, 15, 16}

        computed = []
        real = tnam_mod._block_partials

        def counting(block):
            computed.append(block.shape[0])
            return real(block)

        monkeypatch.setattr(tnam_mod, "_block_partials", counting)
        updated = tnam.update_rows(new_attrs, rows)
        monkeypatch.undo()
        assert len(computed) == len(dirty)
        assert computed[-1] == 300  # the last, partial block
        for b in range(17):
            kept = updated.blocks.grams[b] is tnam.blocks.grams[b]
            kept_sum = updated.blocks.colsums[b] is tnam.blocks.colsums[b]
            assert kept == kept_sum == (b not in dirty), b
        _assert_fresh_build(updated, new_attrs, k=8, metric="cosine")

    @pytest.mark.parametrize("n", [120, 1200])
    def test_out_of_span_row_is_bitwise_a_fresh_build(self, rng, n):
        """A row the old basis cannot express moves the basis, and the
        update still lands on a fresh build bit for bit — also with
        more than one Gram block."""
        attrs = _unit_rows(rng, n, 24)
        tnam = build_tnam(attrs, k=8, metric="cosine")
        assert tnam.basis.shape == (8, 24)
        new_attrs = attrs.copy()
        new_attrs[5] = np.eye(24)[23]  # almost surely escapes an 8-dim span
        updated = tnam.update_rows(new_attrs, [5])
        assert not np.array_equal(updated.basis, tnam.basis)
        _assert_fresh_build(updated, new_attrs, k=8, metric="cosine")

    def test_wide_matrix_joins_the_blocked_path_when_n_reaches_d(self, rng):
        """With d > n the k-SVD is not the blocked Gram eigensolve; once
        appended rows bring n to d, the update takes the path a fresh
        build takes."""
        attrs = _unit_rows(rng, 20, 24)
        tnam = build_tnam(attrs, k=8, metric="cosine")
        assert tnam.blocks is None
        new_attrs = _updated(rng, attrs, [1], appended=4)
        updated = tnam.update_rows(new_attrs, [1, 20, 21, 22, 23])
        assert updated.blocks is not None
        _assert_fresh_build(updated, new_attrs, k=8, metric="cosine")

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


class TestRowBlockInput:
    """The TNAM reads a graph's attribute row blocks in place; a Gram
    block is a whole number of them."""

    def test_gram_block_is_a_whole_number_of_row_blocks(self):
        assert tnam_mod._block_rows(128, 32) == 1024
        assert tnam_mod._block_rows(64, 2) == 2048
        assert tnam_mod._block_rows(100, 3) == 4096  # ⌈10000/3⌉ = 3334

    def test_row_blocks_build_bitwise_like_the_matrix(self, rng):
        attrs = _unit_rows(rng, 2 * 2048 + 700, 64)  # Gram blocks of 2, 2, 1
        from_matrix = build_tnam(attrs, k=2)
        assert from_matrix.blocks.rows == 2048
        assert len(from_matrix.blocks.grams) == 3
        copies = tuple(block.copy() for block in row_blocks(attrs))
        from_blocks = build_tnam(copies, k=2)
        np.testing.assert_array_equal(from_blocks.z, from_matrix.z)
        np.testing.assert_array_equal(from_blocks.basis, from_matrix.basis)

    def test_update_of_multi_row_block_gram_blocks(self, rng):
        attrs = _unit_rows(rng, 2 * 2048 + 700, 64)
        tnam = build_tnam(attrs, k=2)
        rows = [5, 2047, 2048, 4800]
        new_attrs = _updated(rng, attrs, rows, appended=400)
        blocks = row_blocks(new_attrs)
        updated = tnam.update_rows(blocks, rows + list(range(4796, 5196)))
        # Gram block 0 (rows 0-2047) and 1 are dirty, 2 (4096-) grew
        assert updated.blocks.grams[0] is not tnam.blocks.grams[0]
        assert len(updated.blocks.grams) == 3
        _assert_fresh_build(updated, new_attrs, k=2, metric="cosine")
        untouched = _updated(rng, new_attrs, [4500])
        again = updated.update_rows(row_blocks(untouched), [4500])
        assert again.blocks.grams[0] is updated.blocks.grams[0]
        assert again.blocks.grams[1] is updated.blocks.grams[1]
        _assert_fresh_build(again, untouched, k=2, metric="cosine")


def _serial_reference(attrs, k):
    """The one-thread blocked build, kept as the bitwise reference: each
    Gram block's row-block partials summed in order, the Gram blocks
    summed in order, one eigensolve, ``Y = X V_k`` row block by row
    block, then Eq. (18)'s normalization over the whole of ``Y``.
    Returns ``(z, basis, grams, colsums)``."""
    blocks = row_blocks(attrs)
    per = tnam_mod._block_rows(attrs.shape[1], k) // ATTRIBUTE_BLOCK_ROWS
    grams, colsums = [], []
    for lo in range(0, len(blocks), per):
        group = blocks[lo : lo + per]
        gram, colsum = group[0].T @ group[0], group[0].sum(axis=0)
        for block in group[1:]:
            gram += block.T @ block
            colsum += block.sum(axis=0)
        grams.append(gram)
        colsums.append(colsum)
    gram, colsum = grams[0].copy(), colsums[0].copy()
    for g, c in zip(grams[1:], colsums[1:]):
        gram += g
        colsum += c
    _, eigenvectors = np.linalg.eigh(gram)
    v = eigenvectors[:, gram.shape[0] - 1 - np.arange(k)]
    y = np.empty((attrs.shape[0], k))
    lo = 0
    for block in blocks:
        np.matmul(block, v, out=y[lo : lo + block.shape[0]])
        lo += block.shape[0]
    denom = y @ (colsum @ v)
    np.maximum(denom, 1e-12, out=denom)
    y /= np.sqrt(denom, out=denom)[:, None]
    return y, v.T, grams, colsums


def _parts(tnam):
    return tnam.z, tnam.basis, list(tnam.blocks.grams), list(tnam.blocks.colsums)


def _assert_bitwise(got, want):
    z, basis, grams, colsums = got
    np.testing.assert_array_equal(z, want[0])
    np.testing.assert_array_equal(basis, want[1])
    assert len(grams) == len(want[2]) and len(colsums) == len(want[3])
    for g, c, g_want, c_want in zip(grams, colsums, want[2], want[3]):
        np.testing.assert_array_equal(g, g_want)
        np.testing.assert_array_equal(c, c_want)


class TestThreadedBlocks:
    """Fit and refresh spread the Gram partials and the projection over
    the CPUs; the TNAM must not depend on how many."""

    @pytest.mark.parametrize(
        ("n", "d", "k", "gram_blocks"),
        [
            (3 * 1024 + 300, 16, 4, 4),  # a partial last block
            (2 * 1024 + 10, 16, 4, 3),  # more CPUs (4) than blocks
            (700, 16, 4, 1),  # a single block
            (2 * 2048 + 700, 64, 2, 3),  # Gram blocks of 2, 2, 1 row blocks
        ],
        ids=[
            "partial-last-block",
            "more-cpus-than-blocks",
            "single-block",
            "multi-row-gram-blocks",
        ],
    )
    def test_cpu_count_leaves_tnam_bitwise(self, rng, monkeypatch, n, d, k, gram_blocks):
        attrs = _unit_rows(rng, n, d)
        rows = [0, n // 2, n - 1]
        new_attrs = _updated(rng, attrs, rows, appended=5)
        rows += list(range(n, n + 5))
        want_fit = _serial_reference(attrs, k)
        want_update = _serial_reference(new_attrs, k)
        # Every chunk, however small, pays for a thread here.
        monkeypatch.setattr(parallel, "MIN_HELPER_WORK", 1)
        real = tnam_mod._block_partials
        for cpus in (1, 2, 4):
            monkeypatch.setattr(parallel, "usable_cpus", lambda cpus=cpus: cpus)
            threads = set()

            def recording(block):
                threads.add(threading.current_thread())
                return real(block)

            monkeypatch.setattr(tnam_mod, "_block_partials", recording)
            fitted = build_tnam(attrs, k=k)
            assert len(fitted.blocks.grams) == gram_blocks
            assert len(threads) == min(cpus, gram_blocks), cpus
            _assert_bitwise(_parts(fitted), want_fit)
            _assert_bitwise(_parts(fitted.update_rows(new_attrs, rows)), want_update)

    def test_small_work_stays_on_the_calling_thread(self, rng, monkeypatch):
        """Under :data:`~repro.parallel.MIN_HELPER_WORK` per thread, a
        many-block build starts no helper thread."""
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 4)
        attrs = _unit_rows(rng, 4 * 1024, 16)
        assert 4 * 1024 * 16 * 16 < parallel.MIN_HELPER_WORK
        threads = set()
        real = tnam_mod._block_partials

        def recording(block):
            threads.add(threading.current_thread())
            return real(block)

        monkeypatch.setattr(tnam_mod, "_block_partials", recording)
        build_tnam(attrs, k=4)
        assert threads == {threading.current_thread()}


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

    def test_state_without_blocks_rebuilds(self, rng, attrs):
        """A TNAM without Gram blocks (a reloaded model's) rebuilds them
        on its first attribute delta, bitwise a fresh build."""
        fresh = build_tnam(attrs, k=16, metric="cosine")
        reloaded = TNAM(z=fresh.z, metric="cosine", k=16)
        new_attrs = _updated(rng, attrs, [0])
        updated = reloaded.update_rows(new_attrs, [0])
        assert updated.blocks is not None
        _assert_fresh_build(updated, new_attrs, k=16, metric="cosine")


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
        _assert_fresh_build(updated, new_attrs, k=32, metric="cosine")


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


D, K = 6, 3
BLOCK = tnam_mod._block_rows(D, K)


@settings(max_examples=25, deadline=None)
@given(
    n0=st.integers(BLOCK - 3, 2 * BLOCK + 3),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_update_sequences_are_bitwise_fresh_builds(n0, seed, data):
    """Random sequences of row rewrites and appends — rows on a block
    boundary, in the last partial block, appends that fill the last
    block or open a new one — leave ``z`` and ``basis`` bitwise equal to
    a fresh build after every delta."""
    rng = np.random.default_rng(seed)
    attrs = _unit_rows(rng, n0, D)
    tnam = build_tnam(attrs, k=K, metric="cosine")
    assert tnam.blocks.rows == BLOCK
    for _ in range(data.draw(st.integers(1, 4), label="deltas")):
        n = attrs.shape[0]
        landmarks = [r for r in (0, BLOCK - 1, BLOCK, n - 1, n // BLOCK * BLOCK) if r < n]
        rewritten = data.draw(
            st.lists(
                st.one_of(st.sampled_from(landmarks), st.integers(0, n - 1)),
                max_size=6,
            ),
            label="rewritten",
        )
        to_fill = -n % BLOCK or BLOCK
        appended = data.draw(
            st.sampled_from([0, 1, 5, to_fill, to_fill + 1]), label="appended"
        )
        if not rewritten and not appended:
            rewritten = [n - 1]
        attrs = _updated(rng, attrs, rewritten, appended=appended)
        rows = list(rewritten) + list(range(n, n + appended))
        tnam = tnam.update_rows(attrs, rows)
        _assert_fresh_build(tnam, attrs, k=K, metric="cosine")
