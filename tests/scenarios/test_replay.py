"""Tests for the event-stream replay harness.

Covers the seeded schedules (Zipf seed sampling, bursty arrivals), the
mixed read/write loop against ``ClusterService`` (closed and open
loop), drift-metric reporting, the bitwise verify-vs-refit mode, and
Enron-style timestamped-edge replay via ``GraphDelta.from_mapping``.
"""

import numpy as np
import pytest

from repro.core.pipeline import LACA
from repro.graphs import GraphStore
from repro.scenarios import (
    DynamicSBMConfig,
    EventStreamScenario,
    ReplayConfig,
    SeedTracker,
    arrival_offsets,
    generate_dynamic_sbm,
    partition_drift,
    parse_timestamped_edges,
    replay,
    sample_seeds_zipf,
    staleness_ledger,
    timestamped_edge_deltas,
)
from repro.serving import ClusterService


@pytest.fixture(scope="module")
def scenario():
    config = DynamicSBMConfig(
        n=260,
        n_communities=4,
        avg_degree=6.0,
        d=24,
        epochs=4,
        churn_fraction=0.03,
        birth_fraction=0.02,
        death_fraction=0.01,
        drift_fraction=0.04,
        merge_epochs=(3,),
    )
    return generate_dynamic_sbm(config, seed=17)


def _service(scenario, **kwargs):
    model = LACA().fit(scenario.base)
    kwargs.setdefault("cache_size", 1024)
    store = GraphStore(scenario.base, history=scenario.epochs + 1)
    return ClusterService(model, store=store, **kwargs)


class TestSchedules:
    def test_zipf_sampling_is_seeded_and_skewed(self):
        candidates = np.arange(500)
        rng = np.random.default_rng(4)
        draws = sample_seeds_zipf(candidates, 4000, 1.2, rng)
        assert draws.shape == (4000,)
        assert np.isin(draws, candidates).all()
        # Heavy skew: the most popular seed dominates a uniform share.
        _, counts = np.unique(draws, return_counts=True)
        assert counts.max() > 10 * (4000 / 500)
        again = sample_seeds_zipf(candidates, 4000, 1.2, np.random.default_rng(4))
        np.testing.assert_array_equal(draws, again)

    def test_arrival_offsets_bursty_and_monotone(self):
        rng = np.random.default_rng(0)
        offsets = arrival_offsets(
            400, 100.0, rng, burst_every=50, burst_length=10, burst_factor=8.0
        )
        assert offsets.shape == (400,)
        assert np.all(np.diff(offsets) >= 0)
        gaps = np.diff(np.concatenate([[0.0], offsets]))
        index = np.arange(400)
        in_burst = (index % 50) < 10
        # Burst arrivals are markedly tighter than steady-state ones.
        assert gaps[in_burst].mean() < gaps[~in_burst].mean() / 3


class TestReplayLoop:
    def test_closed_loop_reports_and_verifies(self, scenario):
        with _service(scenario) as service:
            result = replay(
                service,
                scenario,
                ReplayConfig(
                    queries_per_epoch=20, seed=1, verify_every=2,
                    keep_answers=True,
                ),
            )
        assert len(result.epochs) == scenario.epochs
        summary = result.summary()
        assert summary["queries"] == scenario.epochs * 20
        assert summary["mean_tracking_recall"] > 0.5
        assert summary["all_verified_bitwise"] is True
        assert summary["query_p50_ms"] > 0
        for report in result.epochs:
            assert report["n"] == scenario.n_at(report["epoch"])
            assert report["update_s"] > 0
            assert 0.0 <= report["mean_recall"] <= 1.0
            assert 0.0 <= report["mean_f1"] <= 1.0
            if report["epoch"] > 1:
                assert 0.0 <= report["tracked_stability"] <= 1.0
        # keep_answers captured every drained query + tracked probes
        assert result.answers
        epochs_seen = {answer[0] for answer in result.answers}
        assert epochs_seen == {r["epoch"] for r in result.epochs}

    def test_replay_is_deterministic_for_a_seed(self, scenario):
        def run():
            with _service(scenario) as service:
                return replay(
                    service,
                    scenario,
                    ReplayConfig(queries_per_epoch=16, seed=5, keep_answers=True),
                ).answers

        assert run() == run()

    def test_open_loop_mode_paces_arrivals(self, scenario):
        with _service(scenario) as service:
            result = replay(
                service,
                scenario,
                ReplayConfig(
                    queries_per_epoch=8, seed=2, mode="open", rate_qps=400.0
                ),
            )
        assert result.summary()["queries"] == scenario.epochs * 8

    def test_fixed_size_queries(self, scenario):
        with _service(scenario) as service:
            result = replay(
                service,
                scenario,
                ReplayConfig(queries_per_epoch=8, seed=3, size=15,
                             keep_answers=True),
            )
        sizes = {answer[2] for answer in result.answers}
        assert 15 in sizes

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError, match="mode"):
            ReplayConfig(mode="sideways")


class TestDriftMetrics:
    def test_seed_tracker_jaccard(self):
        tracker = SeedTracker([3])
        assert tracker.observe({3: np.array([1, 2, 3])}) == {}
        out = tracker.observe({3: np.array([2, 3, 4])})
        assert out[3] == pytest.approx(2 / 4)
        assert tracker.observe({3: np.array([2, 3, 4])})[3] == 1.0

    def test_partition_drift_counts_changes_not_births(self, scenario):
        final = scenario.records[-1]
        previous = scenario.labels_at(scenario.epochs - 1)
        drift = partition_drift(previous, final.labels)
        changed = np.flatnonzero(
            final.labels[: previous.shape[0]] != previous
        )
        assert drift == pytest.approx(changed.shape[0] / previous.shape[0])

    def test_staleness_ledger_of_no_reports_is_zero(self):
        assert staleness_ledger([]) == {
            "entries_invalidated": 0,
            "stale_free_hits": 0,
        }
        # The first report precedes any update: its hits are not counted.
        assert staleness_ledger([{"cache_hits": 9}]) == {
            "entries_invalidated": 0,
            "stale_free_hits": 0,
        }

    def test_staleness_ledger_aggregates(self):
        reports = [
            {"cache_invalidations": 6, "cache_hits": 4},
            {"cache_invalidations": 1, "cache_hits": 3},
        ]
        assert staleness_ledger(reports) == {
            "entries_invalidated": 7,
            "stale_free_hits": 3,
        }


class TestTimestampedReplay:
    def _events(self, count=2400, nodes=120, seed=0):
        rng = np.random.default_rng(seed)
        endpoints = rng.integers(0, nodes, size=(count, 2))
        times = np.cumsum(rng.exponential(1.0, size=count))
        return np.column_stack([endpoints, times])

    def test_lift_into_base_and_deltas(self):
        events = self._events()
        base, deltas = timestamped_edge_deltas(events, windows=6, base_windows=2)
        assert len(deltas) == 4
        store = GraphStore(base)
        for delta in deltas:
            head = store.apply(delta)
        # Node ids are remapped by first appearance: contiguous range.
        assert head.n >= base.n
        assert head.degrees.min() >= 1.0

    def test_parse_timestamped_edges(self):
        lines = ["# comment", "", "7 9 10.5", "9 3 11.0"]
        events = parse_timestamped_edges(lines)
        np.testing.assert_array_equal(
            events, [[7.0, 9.0, 10.5], [9.0, 3.0, 11.0]]
        )
        with pytest.raises(ValueError, match="u v t"):
            parse_timestamped_edges(["1 2"])

    def test_replay_event_stream_without_truth(self):
        events = self._events(seed=3)
        stream = EventStreamScenario.from_timestamped_edges(
            events, windows=5, base_windows=2
        )
        model = LACA().fit(stream.base)
        store = GraphStore(stream.base, history=stream.epochs + 1)
        with ClusterService(model, store=store) as service:
            result = replay(
                service, stream, ReplayConfig(queries_per_epoch=10, seed=7)
            )
        summary = result.summary()
        assert summary["epochs"] == stream.epochs
        assert summary["queries"] == stream.epochs * 10
        # No planted truth: quality metrics are absent, not zero.
        assert summary["mean_tracking_recall"] is None
        assert summary["all_verified_bitwise"] is None
