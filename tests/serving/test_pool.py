"""Tests for ClusterService with workers: cross-process parity, epoch
barrier, admission control, and lifecycle.

Everything here runs real worker processes over real shared-memory
segments — the cross-process complement of tests/graphs/test_shm.py.
The governing contract is the same as with ``workers=0``: answers are
bitwise identical to ``LACA.cluster``, and no future ever hangs.
"""

import threading
import time

import numpy as np
import pytest

from repro.core.config import LacaConfig
from repro.core.pipeline import LACA
from repro.graphs import GraphDelta, GraphStore
from repro.serving import ClusterService, DeadlineExceeded, PoolSaturated
from repro.serving.pool import _worker_fit_state


def _model(graph, **overrides):
    overrides.setdefault("k", 8)
    return LACA(LacaConfig(**overrides)).fit(graph)


class TestCrossProcessParity:
    def test_bitwise_equal_to_sequential(self, small_sbm):
        model = _model(small_sbm)
        seeds = [0, 7, 33, 60, 91, 7]
        size = 25
        expected = {seed: model.cluster(seed, size) for seed in set(seeds)}
        with ClusterService(
            model, workers=2, max_batch=8, max_wait_s=0.02
        ) as service:
            futures = [service.submit(seed, size) for seed in seeds]
            for seed, future in zip(seeds, futures):
                np.testing.assert_array_equal(
                    future.result(timeout=60), expected[seed]
                )
            # Second round: every seed now hits the parent-side cache.
            for seed in set(seeds):
                np.testing.assert_array_equal(
                    service.cluster(seed, size), expected[seed]
                )
            stats = service.stats()
        assert stats["cache_served"] >= len(set(seeds))
        assert stats["workers"] == 2

    def test_non_attributed_graph(self, plain_graph):
        model = _model(plain_graph)
        with ClusterService(model, workers=2, max_wait_s=0.0) as service:
            for seed in (0, 10, 55):
                np.testing.assert_array_equal(
                    service.cluster(seed, 20), model.cluster(seed, 20)
                )

    def test_blocks_spread_across_workers(self, small_sbm):
        """With singleton blocks and several workers, more than one
        worker must end up answering (the dispatcher is least-loaded,
        not sticky)."""
        model = _model(small_sbm)
        with ClusterService(
            model, workers=2, max_batch=1, max_wait_s=0.0, cache_size=0
        ) as service:
            futures = [service.submit(seed, 10) for seed in range(24)]
            for future in futures:
                future.result(timeout=60)
            stats = service.stats()
        occupancy = stats["worker_occupancy"]
        assert sum(w["seeds"] for w in occupancy.values()) == 24
        assert len(occupancy) == 2  # both workers served


class TestEpochBarrier:
    def test_update_answers_track_head(self, small_sbm):
        config = LacaConfig(k=16)
        model = LACA(config).fit(small_sbm)
        with ClusterService(model, workers=2, cache_size=64) as service:
            before = service.cluster(0, 20)
            out = service.apply_update(
                GraphDelta(add_edges=[(0, 60), (0, 90)]), timeout=60
            )
            assert out["epoch"] == 1 and service.epoch == 1
            after = service.cluster(0, 20)
            fresh = LACA(config).fit(service.store.head)
            np.testing.assert_array_equal(after, fresh.cluster(0, 20))
            assert not np.array_equal(before, after) or True  # may coincide

    def test_no_post_marker_request_on_pre_marker_snapshot(self, small_sbm):
        """Requests racing an update must each match the fresh-fit
        answer of an epoch that was live while they were in flight —
        never a mixture, never a stale post-marker answer."""
        config = LacaConfig(k=16)
        model = LACA(config).fit(small_sbm)
        seeds = [0, 7, 33]
        size = 20
        delta = GraphDelta(add_edges=[(0, 70), (7, 81)])
        probe = GraphStore(small_sbm)
        valid = {0: {s: model.cluster(s, size) for s in seeds}}
        head = probe.apply(delta)
        fresh = LACA(config).fit(head)
        valid[1] = {s: fresh.cluster(s, size) for s in seeds}

        mismatches = []
        stop = threading.Event()
        with ClusterService(
            model, workers=2, cache_size=64, max_batch=4
        ) as service:
            def reader():
                rng = np.random.default_rng(threading.get_ident() % 2**31)
                while not stop.is_set():
                    seed = seeds[int(rng.integers(len(seeds)))]
                    epoch_before = service.epoch
                    cluster = service.cluster(seed, size)
                    epoch_after = service.epoch
                    ok = any(
                        np.array_equal(cluster, valid[e][seed])
                        for e in range(epoch_before, epoch_after + 1)
                    )
                    if not ok:
                        mismatches.append((seed, epoch_before, epoch_after))

            threads = [threading.Thread(target=reader) for _ in range(3)]
            for thread in threads:
                thread.start()
            try:
                time.sleep(0.05)
                service.apply_update(delta, timeout=60)
                for seed in seeds:
                    np.testing.assert_array_equal(
                        service.cluster(seed, size), valid[1][seed]
                    )
            finally:
                stop.set()
                for thread in threads:
                    thread.join()
        assert not mismatches, mismatches[:5]

    def test_consecutive_updates(self, small_sbm):
        config = LacaConfig(k=16)
        model = LACA(config).fit(small_sbm)
        with ClusterService(model, workers=2, cache_size=16) as service:
            for step in range(3):
                service.apply_update(
                    GraphDelta(add_edges=[(step, 90 + step)]), timeout=60
                )
            assert service.epoch == 3
            fresh = LACA(config).fit(service.store.head)
            np.testing.assert_array_equal(
                service.cluster(1, 15), fresh.cluster(1, 15)
            )


class TestAdmissionControl:
    def test_saturation_sheds_with_typed_rejection(self, small_sbm):
        model = _model(small_sbm)
        service = ClusterService(
            model, workers=1, max_pending=2, max_wait_s=0.0, cache_size=0
        )
        try:
            admitted = []
            shed = 0
            for seed in range(30):
                try:
                    admitted.append(service.submit(seed % 100, 10))
                except PoolSaturated:
                    shed += 1
            # the bound was enforced at *some* point (workers may drain
            # a couple before the loop outruns them) and nothing hangs
            for future in admitted:
                assert len(future.result(timeout=60)) == 10
            stats = service.stats()
            assert stats["shed"] == shed
            assert stats["pending"] == 0
        finally:
            service.close(timeout=30)

    def test_saturation_bound_is_tight(self, small_sbm):
        """With the dispatcher unable to drain (deadline far away but a
        wedged single worker), at most max_pending requests are ever
        admitted."""
        model = _model(small_sbm)
        service = ClusterService(
            model,
            workers=1,
            max_pending=3,
            max_wait_s=0.0,
            cache_size=0,
            # Pin pre-supervision behavior: the dead worker must stay
            # dead so nothing ever drains the admission ledger.
            restart_budget=0,
            max_retries=0,
        )
        try:
            # kill the worker so nothing drains, then hammer submit
            service._procs[0].terminate()
            service._procs[0].join(10)
            results = []
            for seed in range(10):
                try:
                    results.append(service.submit(seed, 10))
                except PoolSaturated:
                    results.append(None)
                except RuntimeError:
                    results.append(None)  # failed-service rejection
            live = [future for future in results if future is not None]
            assert len(live) <= 3
        finally:
            service.close(timeout=30)

    def test_deadline_miss_is_typed_and_counted(self, small_sbm):
        """A gather window longer than the deadline guarantees every
        request in the block expires while queued: all must fail with
        DeadlineExceeded (never be computed late) and be counted."""
        model = _model(small_sbm)
        service = ClusterService(
            model,
            workers=1,
            deadline_s=0.05,
            max_wait_s=0.5,
            max_batch=8,
            cache_size=0,
        )
        try:
            futures = [service.submit(seed, 10) for seed in (0, 1, 2)]
            for future in futures:
                with pytest.raises(DeadlineExceeded):
                    future.result(timeout=60)
            stats = service.stats()
            assert stats["deadline_misses"] == 3
            assert stats["engine_served"] == 0  # nothing was computed late
        finally:
            service.close(timeout=30)

    def test_invalid_pool_parameters(self, small_sbm):
        model = _model(small_sbm)
        with pytest.raises(ValueError, match="workers"):
            ClusterService(model, workers=-1)
        with pytest.raises(ValueError, match="max_pending"):
            ClusterService(model, max_pending=0)
        with pytest.raises(ValueError, match="deadline_s"):
            ClusterService(model, deadline_s=0.0)
        with pytest.raises(ValueError, match="max_retries"):
            ClusterService(model, max_retries=-1)
        with pytest.raises(ValueError, match="restart_budget"):
            ClusterService(model, restart_budget=-1)


class TestPoolLifecycle:
    def test_close_answers_queued_work(self, small_sbm):
        model = _model(small_sbm)
        service = ClusterService(model, workers=2, max_wait_s=0.1)
        futures = [service.submit(seed, 15) for seed in (0, 1, 2)]
        assert service.close(timeout=60) is True
        for future in futures:
            assert len(future.result(timeout=1)) == 15

    def test_close_is_idempotent(self, small_sbm):
        service = ClusterService(_model(small_sbm), workers=1)
        assert service.close(timeout=60) is True
        service.close(timeout=10)

    def test_submit_after_close_raises(self, small_sbm):
        service = ClusterService(_model(small_sbm), workers=1)
        service.close(timeout=60)
        with pytest.raises(RuntimeError, match="closed"):
            service.submit(0, 10)

    def test_worker_death_fails_inflight_not_service(self, small_sbm):
        """Killing one of two workers must fail only its in-flight
        requests; the survivor keeps answering.  Supervision is
        disabled here to pin the pre-respawn degraded mode (the
        recovering behavior lives in test_fault_tolerance.py)."""
        model = _model(small_sbm)
        service = ClusterService(
            model,
            workers=2,
            max_wait_s=0.0,
            cache_size=0,
            restart_budget=0,
            max_retries=0,
        )
        try:
            service._procs[0].terminate()
            service._procs[0].join(10)
            deadline = time.perf_counter() + 10
            while (
                not service._pool._worker_dead[0] and time.perf_counter() < deadline
            ):
                time.sleep(0.05)  # collector reaps on its poll interval
            # the pool still serves on the surviving worker
            assert len(service.cluster(5, 10)) == 10
            assert service.stats()["workers_alive"] == 1
        finally:
            service.close(timeout=30)

    def test_pool_fit_state_drops_maintenance_and_factor(self, small_sbm):
        model = _model(small_sbm)
        state = _worker_fit_state(model)
        assert "tnam_z" not in state
        assert "tnam_y" not in state and "tnam_basis" not in state
        assert "tnam_metric" in state  # identity scalars still travel
