"""The scatter module: kernels, touched-set tracking and fresh per-query buffers.

Every frontier engine run builds its own ``q``/``r`` buffers through
:func:`engine_setup`, records what it touched on its :class:`_EngineSlot`
and scatters through :func:`scatter_step`.  These tests pin each piece on
its own: the three scatter kernels against the per-row reference loop
bit for bit, the slot's touched-set bookkeeping, the prologue's staging
and validation, and the end-to-end consequence that no query can see
another's state.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.config import LacaConfig
from repro.core.laca import laca_scores
from repro.core.pipeline import LACA
from repro.diffusion import adaptive_diffuse, greedy_diffuse, nongreedy_diffuse
from repro.diffusion import reference as ref
from repro.diffusion.base import begin_kernel_tally, end_kernel_tally
from repro.diffusion.push import push_diffuse
from repro.diffusion.scatter import (
    _EngineSlot,
    collect_touched,
    engine_setup,
    scatter_step,
    sorted_union,
)
from repro.graphs.generators import SBMConfig, attributed_sbm

ENGINES = {
    "greedy": greedy_diffuse,
    "nongreedy": nongreedy_diffuse,
    "adaptive": adaptive_diffuse,
    "push": push_diffuse,
}

REFERENCES = {
    "greedy": ref.reference_greedy_diffuse,
    "nongreedy": ref.reference_nongreedy_diffuse,
    "adaptive": ref.reference_adaptive_diffuse,
    "push": ref.reference_push_diffuse,
}


@pytest.fixture(scope="module")
def graph():
    return attributed_sbm(
        SBMConfig(n=150, n_communities=3, avg_degree=8.0, d=8),
        seed=1,
        name="scatter-graph",
    )


@pytest.fixture(scope="module")
def dense_graph():
    # n/8 = 15 and 1/16 of the full mat-vec cost is ~240, so a volume of
    # 100 lands in the CSC regime, 0 in the gather regime and anything
    # past ~240 in the full regime.
    return attributed_sbm(
        SBMConfig(n=120, n_communities=3, avg_degree=28.0, d=8),
        seed=0,
        name="scatter-dense",
    )


def _one_hot(n, i):
    f = np.zeros(n)
    f[i] = 1.0
    return f


class TestSortedUnion:
    def test_matches_union1d(self, rng):
        for _ in range(20):
            a = np.unique(rng.integers(0, 50, size=rng.integers(0, 30)))
            b = np.unique(rng.integers(0, 50, size=rng.integers(0, 30)))
            np.testing.assert_array_equal(sorted_union(a, b), np.union1d(a, b))

    def test_empty_inputs(self):
        empty = np.empty(0, dtype=np.int64)
        assert sorted_union(empty, empty).size == 0
        np.testing.assert_array_equal(
            sorted_union(empty, np.array([3, 5])), np.array([3, 5])
        )


#: The ``volume`` handed to ``scatter_step`` picks the kernel; the rows
#: and values are what it scatters.  Each regime must give the same bits.
REGIME_VOLUMES = {"gather": 0.0, "csc": 100.0, "full": 1e12}


def _rows(kind, n, rng):
    if kind == "one":
        return np.array([7], dtype=np.int64)
    if kind == "few":
        return np.unique(rng.integers(0, n, size=12)).astype(np.int64)
    return np.arange(0, n, 2, dtype=np.int64)


class TestScatterStep:
    @pytest.mark.parametrize("regime", list(REGIME_VOLUMES))
    @pytest.mark.parametrize("kind", ["one", "few", "many"])
    def test_every_regime_matches_reference_loop(self, dense_graph, regime, kind):
        rng = np.random.default_rng(5)
        n = dense_graph.n
        rows = _rows(kind, n, rng)
        vals = rng.random(rows.size) + 0.1
        full_vals = np.zeros(n)
        full_vals[rows] = vals
        expected = ref.reference_selective_scatter(dense_graph, full_vals, rows)

        counts = begin_kernel_tally()
        try:
            touched, sums, dense = scatter_step(
                dense_graph, rows, vals, REGIME_VOLUMES[regime]
            )
        finally:
            end_kernel_tally()
        assert counts == {regime: 1}
        if regime == "gather":
            assert dense is None
            assert (np.diff(touched) > 0).all()
            got = np.zeros(n)
            got[touched] = sums
        else:
            assert touched is None and sums is None
            got = dense
        assert np.array_equal(got, expected)


class TestEngineSlot:
    def test_note_records_only_fresh_indices(self):
        slot = _EngineSlot(100)
        slot.note(np.array([3, 5]))
        slot.note(np.array([5, 7]))
        assert [c.tolist() for c in slot.chunks] == [[3, 5], [7]]
        np.testing.assert_array_equal(collect_touched(slot), [3, 5, 7])

    def test_collect_touched_sorts_the_chunks(self):
        slot = _EngineSlot(100)
        slot.note(np.array([40, 41]))
        slot.note(np.array([2, 9]))
        np.testing.assert_array_equal(collect_touched(slot), [2, 9, 40, 41])

    def test_empty_slot_collects_an_empty_index_array(self):
        touched = collect_touched(_EngineSlot(10))
        assert touched.size == 0 and touched.dtype == np.int64

    def test_tracking_stops_at_half_the_graph(self):
        slot = _EngineSlot(100)
        slot.note(np.arange(49))
        assert not slot.full
        slot.note(np.array([49]))
        assert slot.full and slot.chunks == []
        assert collect_touched(slot) is None
        slot.note(np.array([99]))  # no-op once full
        assert slot.chunks == []

    def test_note_all_stops_tracking(self):
        slot = _EngineSlot(100)
        slot.note(np.array([1, 2]))
        slot.note_all()
        assert collect_touched(slot) is None


class TestEngineSetup:
    def test_stages_input_on_fresh_buffers(self, graph):
        f = np.zeros(graph.n)
        f[[4, 9, 30]] = [0.5, 0.25, 0.25]
        _, first, candidates = engine_setup(graph, f, 0.8, 1e-4, None)
        _, second, _ = engine_setup(graph, f, 0.8, 1e-4, None)
        np.testing.assert_array_equal(candidates, [4, 9, 30])
        np.testing.assert_array_equal(first.r, f)
        assert not first.q.any()
        np.testing.assert_array_equal(collect_touched(first), [4, 9, 30])
        assert not np.shares_memory(first.r, second.r)
        assert not np.shares_memory(first.q, second.q)
        assert not np.shares_memory(first.r, f)

    def test_caller_support_is_the_initial_frontier(self, graph):
        f = np.zeros(graph.n)
        f[[2, 11]] = 1.0
        support = np.array([2, 5, 11], dtype=np.int32)
        _, slot, candidates = engine_setup(graph, f, 0.8, 1e-4, support)
        assert candidates.dtype == np.int64
        np.testing.assert_array_equal(candidates, [2, 5, 11])
        np.testing.assert_array_equal(collect_touched(slot), [2, 5, 11])
        np.testing.assert_array_equal(slot.r, f)

    @pytest.mark.parametrize("with_support", [False, True])
    def test_rejects_a_wrong_length_input(self, graph, with_support):
        support = np.array([0], dtype=np.int64) if with_support else None
        with pytest.raises(ValueError, match="shape"):
            engine_setup(graph, np.ones(graph.n + 1), 0.8, 1e-4, support)

    def test_rejects_negative_input_it_scans(self, graph):
        f = _one_hot(graph.n, 3)
        f[8] = -0.1
        with pytest.raises(ValueError, match="non-negative"):
            engine_setup(graph, f, 0.8, 1e-4, None)


class TestFreshBuffersPerQuery:
    @pytest.mark.parametrize("engine", list(ENGINES))
    def test_repeated_queries_are_independent(self, graph, engine):
        """Two runs of one query give the same bits on disjoint arrays, so
        a caller that edits one result cannot change another."""
        fn = ENGINES[engine]
        first = fn(graph, _one_hot(graph.n, 3), 0.8, epsilon=1e-4)
        second = fn(graph, _one_hot(graph.n, 3), 0.8, epsilon=1e-4)
        assert np.array_equal(first.q, second.q)
        assert np.array_equal(first.residual, second.residual)
        assert not np.shares_memory(first.q, second.q)
        assert not np.shares_memory(first.residual, second.residual)
        kept = second.q.copy()
        first.q[:] = -1.0
        first.residual[:] = -1.0
        assert np.array_equal(second.q, kept)
        third = fn(graph, _one_hot(graph.n, 3), 0.8, epsilon=1e-4)
        assert np.array_equal(third.q, kept)

    def test_mixed_engine_epsilon_sequence_matches_reference(self, graph):
        """Interleaving engines and thresholds cannot leak state."""
        sequence = [
            ("greedy", 5, 1e-3),
            ("adaptive", 9, 1e-5),
            ("push", 5, 1e-3),
            ("nongreedy", 120, 1e-4),
            ("greedy", 5, 1e-5),
        ]
        for engine, seed, epsilon in sequence:
            f = _one_hot(graph.n, seed)
            got = ENGINES[engine](graph, f, 0.8, epsilon=epsilon)
            want = REFERENCES[engine](graph, f, 0.8, epsilon=epsilon)
            assert np.array_equal(got.q, want.q), (engine, seed, epsilon)
            assert np.array_equal(got.residual, want.residual)

    def test_laca_results_own_their_arrays(self, graph):
        config = LacaConfig(metric="cosine", k=8, diffusion="adaptive", epsilon=1e-4)
        model = LACA(config).fit(graph)
        first = laca_scores(graph, 42, config=config, tnam=model.tnam)
        second = laca_scores(graph, 42, config=config, tnam=model.tnam)
        assert np.array_equal(first.scores, second.scores)
        assert not np.shares_memory(first.scores, second.scores)
        assert not np.shares_memory(first.scores, first.bdd.q)
        kept = second.cluster(12)
        first.scores[:] = 0.0
        np.testing.assert_array_equal(second.cluster(12), kept)

    def test_cluster_ignores_the_workspace_keyword(self, graph):
        model = LACA(LacaConfig(metric="cosine", k=8, epsilon=1e-4)).fit(graph)
        ws = model.make_workspace()
        assert ws is None
        for seed in (1, 2, 3):
            np.testing.assert_array_equal(
                model.cluster(seed, 10, workspace=ws), model.cluster(seed, 10)
            )

    def test_push_failure_does_not_disturb_the_next_query(self, graph):
        with pytest.raises(RuntimeError, match="exceeded"):
            push_diffuse(graph, _one_hot(graph.n, 0), 0.8, 1e-7, max_pushes=3)
        f = _one_hot(graph.n, 0)
        got = push_diffuse(graph, f, 0.8, 1e-4)
        want = ref.reference_push_diffuse(graph, f, 0.8, 1e-4)
        assert np.array_equal(got.q, want.q)
        assert np.array_equal(got.residual, want.residual)


@pytest.fixture(scope="module")
def local_graph():
    # Sparse and loose enough that a one-hot diffusion stays local, so
    # the slot keeps tracking to the end.
    return attributed_sbm(
        SBMConfig(n=2000, n_communities=4, avg_degree=4.0, d=8),
        seed=2,
        name="scatter-local",
    )


class TestTouchedSets:
    @pytest.mark.parametrize("engine", list(ENGINES))
    def test_touched_covers_what_the_run_wrote(self, local_graph, engine):
        result = ENGINES[engine](
            local_graph, _one_hot(local_graph.n, 17), 0.8, epsilon=1e-2
        )
        assert result.touched is not None
        assert (np.diff(result.touched) > 0).all()
        written = np.union1d(np.flatnonzero(result.q), np.flatnonzero(result.residual))
        assert np.isin(written, result.touched).all()
        assert result.touched.size < local_graph.n // 2

    @pytest.mark.parametrize("engine", list(ENGINES))
    def test_scores_support_is_the_nonzero_scores(self, graph, engine):
        config = LacaConfig(metric="cosine", k=8, diffusion=engine, epsilon=1e-4)
        model = LACA(config).fit(graph)
        for seed in (0, 77):
            result = laca_scores(graph, seed, config=config, tnam=model.tnam)
            np.testing.assert_array_equal(
                result.scores_support, np.flatnonzero(result.scores)
            )


class TestLocalScatterAllocation:
    def test_gather_regime_allocates_no_length_n_array(self):
        """The local kernel's work and memory follow the gathered volume:
        on a 40k-node graph a small frontier's scatter stays far below
        one length-``n`` float buffer."""
        big = attributed_sbm(
            SBMConfig(n=40_000, n_communities=10, avg_degree=6.0, d=8),
            seed=3,
            name="scatter-big",
        )
        rows = np.arange(100, 140, dtype=np.int64)
        vals = np.full(rows.size, 0.025)
        volume = float(big.degrees[rows].sum())
        assert volume * 8 <= big.n
        scatter_step(big, rows, vals, volume)  # warm
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            touched, sums, dense = scatter_step(big, rows, vals, volume)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert dense is None and touched.size > 0
        assert peak < big.n * 8 // 2, f"gather peaked at {peak} traced bytes"
