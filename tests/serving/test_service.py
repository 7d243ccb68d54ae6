"""Tests for ClusterService: parity, coalescing, caching, lifecycle.

The service is a scheduling layer over engines whose batch parity is
already pinned (tests/core/test_laca_batch.py): whatever blocks the
dispatcher forms, every answer must equal the sequential
``LACA.cluster`` output exactly.
"""

import multiprocessing
import threading
import time

import numpy as np
import pytest

from repro.core.config import LacaConfig
from repro.core.pipeline import LACA
from repro.graphs import GraphDelta
from repro.serving import (
    ClusterService,
    DeadlineExceeded,
    PoolSaturated,
    UpdateTimeout,
)

ENGINES = ["greedy", "nongreedy", "adaptive"]


def _model(graph, engine="adaptive", **overrides):
    overrides.setdefault("k", 8)
    return LACA(LacaConfig(diffusion=engine, **overrides)).fit(graph)


class TestBatchParity:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_bitwise_equal_to_sequential(self, small_sbm, engine):
        """Coalesced answers match sequential cluster() across engines,
        on both the cache-miss (first ask) and cache-hit (second ask)
        paths."""
        model = _model(small_sbm, engine)
        seeds = [0, 7, 33, 60, 91, 7]  # includes an in-flight duplicate
        size = 25
        expected = {seed: model.cluster(seed, size) for seed in set(seeds)}
        with ClusterService(model, max_batch=8, max_wait_s=0.05) as service:
            futures = [service.submit(seed, size) for seed in seeds]
            for seed, future in zip(seeds, futures):
                np.testing.assert_array_equal(future.result(), expected[seed])
            # Second round: every seed is now cached.
            for seed in seeds:
                np.testing.assert_array_equal(
                    service.cluster(seed, size), expected[seed]
                )
            stats = service.stats()
        # Every request is accounted for; at least the whole second round
        # came from the cache (the in-flight duplicate may land on either
        # side depending on when its block dispatched).
        assert stats["engine_served"] + stats["cache_served"] == 2 * len(seeds)
        assert stats["cache_served"] >= len(seeds)
        assert stats["engine_served"] >= len(set(seeds))

    def test_non_attributed_graph(self, plain_graph):
        model = _model(plain_graph)
        with ClusterService(model, max_wait_s=0.02) as service:
            for seed in (0, 10, 55):
                np.testing.assert_array_equal(
                    service.cluster(seed, 20), model.cluster(seed, 20)
                )

    def test_mixed_sizes_in_one_block(self, small_sbm):
        model = _model(small_sbm)
        with ClusterService(model, max_wait_s=0.1) as service:
            futures = [
                service.submit(seed, size)
                for seed, size in [(0, 5), (0, 30), (17, 12)]
            ]
            results = [future.result() for future in futures]
        assert [len(cluster) for cluster in results] == [5, 30, 12]
        np.testing.assert_array_equal(results[0], model.cluster(0, 5))
        np.testing.assert_array_equal(results[1], model.cluster(0, 30))


class TestCoalescing:
    def test_quick_burst_forms_one_block(self, small_sbm):
        model = _model(small_sbm)
        with ClusterService(model, max_batch=8, max_wait_s=0.25) as service:
            futures = [service.submit(seed, 20) for seed in (1, 2, 3, 4)]
            for future in futures:
                future.result()
            stats = service.stats()
        assert stats["batches"] == 1
        assert stats["mean_batch_occupancy"] == 4.0
        assert stats["max_batch_occupancy"] == 4

    def test_max_batch_caps_occupancy(self, small_sbm):
        model = _model(small_sbm)
        with ClusterService(model, max_batch=2, max_wait_s=0.25) as service:
            futures = [service.submit(seed, 20) for seed in (1, 2, 3, 4)]
            for future in futures:
                future.result()
            stats = service.stats()
        assert stats["max_batch_occupancy"] <= 2
        assert stats["batches"] >= 2

    def test_concurrent_submitters_all_answered_correctly(self, small_sbm):
        model = _model(small_sbm)
        expected = {seed: model.cluster(seed, 20) for seed in range(24)}
        failures: list[str] = []

        def worker(seeds, service):
            for seed in seeds:
                got = service.cluster(seed, 20)
                if not np.array_equal(got, expected[seed]):
                    failures.append(f"seed {seed} mismatched")

        with ClusterService(model, max_batch=8, max_wait_s=0.005) as service:
            threads = [
                threading.Thread(target=worker, args=(range(lo, lo + 3), service))
                for lo in range(0, 24, 3)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            stats = service.stats()
        assert not failures
        assert stats["engine_served"] == 24
        assert stats["requests"] == 24


class TestCacheIntegration:
    def test_cache_hits_skip_the_engine(self, small_sbm):
        model = _model(small_sbm)
        with ClusterService(model, max_wait_s=0.0) as service:
            first = service.cluster(5, 20)
            second = service.cluster(5, 20)
            stats = service.stats()
        assert second is first  # the very same stored array
        assert stats["engine_served"] == 1
        assert stats["cache_served"] == 1
        assert stats["cache_hit_rate"] == 0.5
        assert stats["cache"]["hits"] == 1

    def test_cache_disabled(self, small_sbm):
        model = _model(small_sbm)
        with ClusterService(model, cache_size=0, max_wait_s=0.0) as service:
            service.cluster(5, 20)
            service.cluster(5, 20)
            stats = service.stats()
        assert service.cache is None
        assert stats["cache"] is None
        assert stats["engine_served"] == 2

    def test_results_are_read_only(self, small_sbm):
        model = _model(small_sbm)
        with ClusterService(model, max_wait_s=0.0) as service:
            cluster = service.cluster(5, 20)
        with pytest.raises(ValueError):
            cluster[0] = 99


class TestLifecycleAndValidation:
    def test_close_answers_queued_work(self, small_sbm):
        model = _model(small_sbm)
        service = ClusterService(model, max_wait_s=0.2)
        futures = [service.submit(seed, 15) for seed in (0, 1, 2)]
        service.close()
        for future in futures:
            assert len(future.result()) == 15

    def test_submit_after_close_raises(self, small_sbm):
        service = ClusterService(_model(small_sbm))
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            service.submit(0, 10)

    def test_close_is_idempotent(self, small_sbm):
        service = ClusterService(_model(small_sbm))
        service.close()
        service.close()

    def test_invalid_arguments_fail_fast(self, small_sbm):
        with ClusterService(_model(small_sbm)) as service:
            with pytest.raises(IndexError, match="out of range"):
                service.submit(10_000, 10)
            with pytest.raises(ValueError, match="positive"):
                service.submit(0, 0)

    def test_unfitted_model_rejected(self):
        with pytest.raises(RuntimeError, match="fit"):
            ClusterService(LACA())

    def test_invalid_scheduler_parameters(self, small_sbm):
        model = _model(small_sbm)
        with pytest.raises(ValueError, match="max_batch"):
            ClusterService(model, max_batch=0)
        with pytest.raises(ValueError, match="max_wait_s"):
            ClusterService(model, max_wait_s=-1.0)

    def test_engine_failure_propagates_to_futures(self, small_sbm):
        model = _model(small_sbm)
        with ClusterService(model, max_wait_s=0.1) as service:
            def boom(*_args, **_kwargs):
                raise RuntimeError("engine exploded")

            service.model = type(
                "Broken",
                (),
                {"scores": staticmethod(boom), "scores_batch": staticmethod(boom)},
            )()
            futures = [service.submit(seed, 10) for seed in (0, 1)]
            for future in futures:
                with pytest.raises(RuntimeError, match="exploded"):
                    future.result()
            stats = service.stats()
        assert stats["errors"] == 2

    def test_block_remainder_failure_propagates_to_futures(self, small_sbm):
        """small_sbm saturates (its queries scatter graph-wide), so a block
        answers its first seed sequentially and the rest through
        ``scores_batch``; a failure there fails the whole block."""
        model = _model(small_sbm)
        remainders = []

        def boom(seeds):
            remainders.append(list(seeds))
            raise RuntimeError("block engine exploded")

        with ClusterService(model, max_wait_s=0.2, cache_size=0) as service:
            model.scores_batch = boom
            futures = [service.submit(seed, 10) for seed in (0, 1, 2)]
            for future in futures:
                with pytest.raises(RuntimeError, match="exploded"):
                    future.result(timeout=10)
            stats = service.stats()
        assert remainders == [[1, 2]]
        assert stats["errors"] == 3

    def test_cancelled_future_does_not_kill_dispatcher(self, small_sbm):
        model = _model(small_sbm)
        with ClusterService(model, max_wait_s=0.2, cache_size=0) as service:
            doomed = service.submit(0, 10)
            doomed.cancel()  # may lose the race; liveness must hold either way
            survivor = service.submit(1, 10)
            assert len(survivor.result(timeout=10)) == 10
            # The service still answers fresh work after the cancellation.
            assert len(service.cluster(2, 10)) == 10

    def test_submit_many(self, small_sbm):
        model = _model(small_sbm)
        with ClusterService(model, max_wait_s=0.05) as service:
            futures = service.submit_many([0, 1, 2], size=12)
            assert all(len(future.result()) == 12 for future in futures)

    def test_submit_many_partial_failure_keeps_earlier_seeds_live(
        self, small_sbm
    ):
        """Documented partial-failure contract: an invalid seed mid-list
        raises, but every seed before it was already enqueued and is
        still answered normally (nothing is rolled back or orphaned)."""
        model = _model(small_sbm)
        service = ClusterService(model, max_wait_s=0.05)
        with pytest.raises(IndexError, match="out of range"):
            service.submit_many([0, 1, 10_000, 2], size=12)
        assert service.close(timeout=10) is True  # answers queued work
        stats = service.stats()
        # Exactly the two seeds ahead of the bad one were served; the
        # seed behind it never entered the queue.
        assert stats["engine_served"] + stats["cache_served"] == 2
        assert stats["errors"] == 0


def _stall_single_queries(service, started, release):
    """Replace the single-query path with one that parks until released.

    Lets a test wedge the dispatcher deterministically: submit one
    query, wait for ``started``, and everything submitted afterwards is
    provably stuck *behind* it in the queue.
    """
    original = service.model.scores

    def slow_scores(seed):
        started.set()
        release.wait(30)
        return original(seed)

    service.model.scores = slow_scores


class TestInThreadService:
    """``workers=0``: the dispatcher answers every block itself, and
    admission control still applies."""

    def test_starts_no_process_and_no_pool_thread(self, small_sbm):
        children = set(multiprocessing.active_children())
        threads = set(threading.enumerate())
        with ClusterService(_model(small_sbm), name="light") as service:
            assert len(service.cluster(0, 10)) == 10
            assert set(multiprocessing.active_children()) == children
            started = set(threading.enumerate()) - threads
            assert [thread.name for thread in started] == ["cluster-service-light"]
            assert not any(
                thread.name.startswith("cluster-pool") for thread in threading.enumerate()
            )

    def test_max_pending_sheds_while_first_is_pending(self, small_sbm):
        service = ClusterService(
            _model(small_sbm), max_pending=1, max_wait_s=0.0, cache_size=0
        )
        started, release = threading.Event(), threading.Event()
        _stall_single_queries(service, started, release)
        try:
            first = service.submit(0, 10)
            assert started.wait(10)
            with pytest.raises(PoolSaturated, match="max_pending=1"):
                service.submit(1, 10)
            assert service.stats()["shed"] == 1
            release.set()
            assert len(first.result(timeout=10)) == 10
            # The resolved request left the ledger: the next one admits.
            assert len(service.cluster(1, 10)) == 10
            assert service.stats()["pending"] == 0
        finally:
            release.set()
            service.close(timeout=10)

    def test_deadline_drops_requests_queued_past_it(self, small_sbm):
        service = ClusterService(
            _model(small_sbm), deadline_s=0.05, max_wait_s=0.0, cache_size=0
        )
        started, release = threading.Event(), threading.Event()
        _stall_single_queries(service, started, release)
        try:
            first = service.submit(0, 10)
            assert started.wait(10)
            queued = [service.submit(seed, 10) for seed in (1, 2)]
            time.sleep(0.1)  # the queued requests expire behind the stall
            release.set()
            assert len(first.result(timeout=10)) == 10
            for future in queued:
                with pytest.raises(DeadlineExceeded):
                    future.result(timeout=10)
            stats = service.stats()
            assert stats["deadline_misses"] == 2
            assert stats["engine_served"] == 1
        finally:
            release.set()
            service.close(timeout=10)


    def test_stats_report_no_pool(self, small_sbm):
        """With no worker processes the pool figures are fixed zeros, and
        an answered request leaves nothing pending."""
        with ClusterService(_model(small_sbm), max_pending=4) as service:
            assert len(service.cluster(0, 10)) == 10
            stats = service.stats()
        assert stats["workers"] == 0
        assert stats["max_pending"] == 4
        assert stats["pending"] == 0
        assert stats["workers_alive"] == 0
        assert stats["inflight_blocks"] == 0
        assert stats["parked_blocks"] == 0
        assert stats["fallback_active"] is False
        assert stats["engine_served"] == 1

    def test_pool_cluster_service_is_an_alias(self, small_sbm):
        """Both old import paths name the one class, so a caller that
        still builds ``PoolClusterService(model, workers=N)`` gets it."""
        from repro.serving import PoolClusterService
        from repro.serving.pool import PoolClusterService as pool_alias

        assert PoolClusterService is ClusterService
        assert pool_alias is ClusterService

    @pytest.mark.parametrize(
        "option",
        ["mp_context", "reload_timeout_s", "restart_window_s", "backoff_max_s"],
    )
    def test_removed_options_are_rejected(self, small_sbm, option):
        """Options no caller set are module constants now, so passing one
        fails at construction instead of being silently ignored."""
        with pytest.raises(TypeError, match=option):
            ClusterService(_model(small_sbm), **{option: 1.0})


class TestFailureContainment:
    """Regression tests for the hung-future bugfix sweep.

    The liveness contract under test: *every* future handed out by the
    service eventually resolves — with an answer or an error — no
    matter how the dispatcher dies, how close() times out, or how slow
    an update is.  Before the sweep each of these scenarios left
    callers blocked forever in ``Future.result()``.
    """

    def test_dispatcher_crash_fails_block_futures(self, small_sbm):
        """An exception escaping outside the engine call (here: poisoned
        telemetry) used to kill the dispatcher thread silently, hanging
        every in-flight future.  Now the block's futures are failed with
        the cause and the service fails closed."""
        model = _model(small_sbm)
        service = ClusterService(model, max_wait_s=0.2, cache_size=0)

        def poisoned(*_args, **_kwargs):
            raise ZeroDivisionError("telemetry exploded")

        service.telemetry.record_batch = poisoned
        futures = [service.submit(seed, 10) for seed in (0, 1, 2)]
        for future in futures:
            with pytest.raises(RuntimeError, match="crashed"):
                future.result(timeout=10)
        with pytest.raises(RuntimeError, match="failed"):
            service.submit(3, 10)
        # The dispatcher survived the crash and still honors shutdown.
        assert service.close(timeout=10) is True

    def test_dispatcher_crash_drains_queued_requests(self, small_sbm):
        """Requests queued *behind* a crashing block must resolve too:
        the dispatcher drains them with the failure instead of leaving
        them for a thread that will answer nothing further."""
        model = _model(small_sbm)
        started, release = threading.Event(), threading.Event()
        service = ClusterService(model, max_wait_s=0.0, cache_size=0)
        _stall_single_queries(service, started, release)

        def poisoned(*_args, **_kwargs):
            raise ZeroDivisionError("telemetry exploded")

        service.telemetry.record_batch = poisoned
        victim = service.submit(0, 10)
        assert started.wait(10)
        queued = [service.submit(seed, 10) for seed in (1, 2)]
        release.set()
        for future in (victim, *queued):
            with pytest.raises(RuntimeError, match="crashed"):
                future.result(timeout=10)
        assert service.close(timeout=10) is True

    def test_close_timeout_fails_pending_futures_and_reports(self, small_sbm):
        """close(timeout) with a wedged dispatcher used to return as if
        shutdown succeeded, leaving queued futures hanging.  Now it
        fails them and returns False; a later close() re-joins."""
        model = _model(small_sbm)
        started, release = threading.Event(), threading.Event()
        service = ClusterService(model, max_wait_s=0.0, cache_size=0)
        _stall_single_queries(service, started, release)
        in_flight = service.submit(0, 10)
        assert started.wait(10)
        stuck = [service.submit(seed, 10) for seed in (1, 2)]
        assert service.close(timeout=0.1) is False
        for future in stuck:
            with pytest.raises(RuntimeError, match="closed before"):
                future.result(timeout=10)
        release.set()
        # The request the dispatcher was already serving still completes,
        # and the re-joined close reports a clean exit.
        assert len(in_flight.result(timeout=10)) == 10
        assert service.close(timeout=10) is True

    def test_update_timeout_is_typed_and_marker_still_lands(self, small_sbm):
        """apply_update hitting its timeout raises UpdateTimeout but the
        service stays consistent: the marker lands in dispatch order,
        post-timeout submissions are answered by the refreshed model,
        and update telemetry is recorded when the marker resolves."""
        config = LacaConfig(k=16)
        model = LACA(config).fit(small_sbm)
        started, release = threading.Event(), threading.Event()
        service = ClusterService(model, max_wait_s=0.0, cache_size=64)
        try:
            _stall_single_queries(service, started, release)
            blocker = service.submit(0, 20)
            assert started.wait(10)
            with pytest.raises(UpdateTimeout) as excinfo:
                service.apply_update(
                    GraphDelta(add_edges=[(3, 77)]), timeout=0.05
                )
            # Post-timeout state is already the new epoch; submissions
            # are keyed there and queue behind the marker.
            assert service.epoch == 1
            later = service.submit(3, 20)
            release.set()
            assert excinfo.value.pending.result(timeout=30) >= 0
            assert len(blocker.result(timeout=30)) == 20
            np.testing.assert_array_equal(
                later.result(timeout=30),
                LACA(config).fit(service.store.head).cluster(3, 20),
            )
            deadline = time.perf_counter() + 10
            while (
                service.stats()["updates"] == 0
                and time.perf_counter() < deadline
            ):
                time.sleep(0.01)  # telemetry rides the marker's callback
            assert service.stats()["updates"] == 1
        finally:
            release.set()
            service.close(timeout=10)

    def test_stats_consistent_under_update_storm(self, small_sbm):
        """stats() reads epoch and cache under the close lock: hammered
        from many threads while updates advance epochs, every snapshot
        must be well-formed and its epoch monotone per observer."""
        model = LACA(LacaConfig(k=16)).fit(small_sbm)
        problems: list[str] = []
        stop = threading.Event()
        with ClusterService(model, cache_size=64) as service:
            def observer():
                last_epoch = -1
                while not stop.is_set():
                    snapshot = service.stats()
                    if snapshot["epoch"] < last_epoch:
                        problems.append("epoch went backwards")
                    last_epoch = snapshot["epoch"]
                    if snapshot["cache"] is None:
                        problems.append("cache stats vanished")

            threads = [threading.Thread(target=observer) for _ in range(4)]
            for thread in threads:
                thread.start()
            try:
                for step in range(5):
                    service.cluster(step, 15)
                    absent = set(small_sbm.neighbors(step))
                    target = next(
                        v
                        for v in range(small_sbm.n - 1, 0, -1)
                        if v not in absent and v != step
                    )
                    service.apply_update(
                        GraphDelta(add_edges=[(step, target)])
                    )
            finally:
                stop.set()
                for thread in threads:
                    thread.join()
            assert not problems
            assert service.stats()["epoch"] == 5
