"""Tests for ClusterService with workers: cross-process parity, epoch
barrier, admission control, and lifecycle.

Everything here runs real worker processes over real shared-memory
segments — the cross-process complement of tests/graphs/test_shm.py.
The governing contract is the same as with ``workers=0``: answers are
bitwise identical to ``LACA.cluster``, and no future ever hangs.
"""

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import LacaConfig
from repro.core.pipeline import LACA
from repro.graphs import GraphDelta, GraphStore
from repro.serving import ClusterService, DeadlineExceeded, PoolSaturated
from repro.serving.pool import _worker_fit_state
from repro.testing import FaultPlan, FaultRule

SRC = Path(__file__).resolve().parents[2] / "src"


def _model(graph, **overrides):
    overrides.setdefault("k", 8)
    return LACA(LacaConfig(**overrides)).fit(graph)


def _segment_names(shared) -> set[str]:
    if shared is None:
        return set()
    return {spec["segment"] for spec in shared.manifest["arrays"].values()}


def _births(graph, count: int, rng) -> GraphDelta:
    """Append ``count`` attributed nodes, each tied to two old nodes."""
    n = graph.n
    return GraphDelta(
        add_nodes=count,
        add_edges=[(n + i, (7 * i) % n) for i in range(count)]
        + [(n + i, (7 * i + 3) % n) for i in range(count)],
        add_attributes=np.abs(rng.normal(size=(count, graph.d))) + 0.05,
        add_communities=np.arange(count) % 3,
    )


def _epoch_deltas(graph, rng) -> list[GraphDelta]:
    """An edge delta, an attribute delta and a node append, in order."""
    return [
        GraphDelta(add_edges=[(0, 70), (7, 81)]),
        GraphDelta(set_attributes=([0, 7, 33], np.abs(rng.normal(size=(3, graph.d))))),
        _births(graph, 4, rng),
    ]


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
        """Requests racing updates must each match the fresh-fit answer
        of an epoch that was live while they were in flight — never a
        mixture, never a stale post-marker answer.  Three back-to-back
        deltas (edges, attribute rows, a node append) make the later
        publishes rewrite recycled segments while readers race them."""
        config = LacaConfig(k=16)
        model = LACA(config).fit(small_sbm)
        seeds = [0, 7, 33]
        size = 20
        probe = GraphStore(small_sbm)
        valid = {0: {s: model.cluster(s, size) for s in seeds}}
        deltas = _epoch_deltas(small_sbm, np.random.default_rng(5))
        for epoch, delta in enumerate(deltas, start=1):
            fresh = LACA(config).fit(probe.apply(delta))
            valid[epoch] = {s: fresh.cluster(s, size) for s in seeds}
        last = len(deltas)

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
                for delta in deltas:
                    service.apply_update(delta, timeout=60)
                for seed in seeds:
                    np.testing.assert_array_equal(
                        service.cluster(seed, size), valid[last][seed]
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


class TestSegmentRecycling:
    def test_inflight_block_never_reads_recycled_pages(self, small_sbm):
        """A block held in a worker across an epoch advance is answered
        on its own epoch's pages: the publish of epoch 2 rewrites the
        epoch-0 set, never the epoch-1 set that block reads."""
        config = LacaConfig(k=16)
        model = LACA(config).fit(small_sbm)
        seed, size = 0, 20
        rng = np.random.default_rng(3)
        first = GraphDelta(add_edges=[(0, 70)])
        second = GraphDelta(
            add_edges=[(0, 90), (0, 100)],
            set_attributes=([0, 1, 2], np.abs(rng.normal(size=(3, small_sbm.d)))),
        )
        probe = GraphStore(small_sbm)
        valid = {}
        for epoch, delta in enumerate((first, second), start=1):
            fresh = LACA(config).fit(probe.apply(delta))
            valid[epoch] = {s: fresh.cluster(s, size) for s in (seed, 5, 33)}
        # The test can tell the two epochs apart only if they differ.
        assert not np.array_equal(valid[1][seed], valid[2][seed])

        # The worker's first block (the held one) sleeps before computing.
        plan = FaultPlan([
            FaultRule(site="worker.block", match={"block_index": 0},
                      action="delay", delay_s=1.0)
        ])
        with ClusterService(
            model, workers=1, cache_size=0, max_wait_s=0.0, fault_plan=plan
        ) as service:
            service.apply_update(first, timeout=60)
            assert service._pool._spare is not None  # epoch 0's set
            held = service.submit(seed, size)
            # Publishes epoch 2 while the epoch-1 block is held; the
            # barrier then waits behind that block.
            service.apply_update(second, timeout=60)
            np.testing.assert_array_equal(held.result(timeout=60), valid[1][seed])
            for s in (seed, 5, 33):
                np.testing.assert_array_equal(service.cluster(s, size), valid[2][s])

    def test_at_most_two_segment_sets_and_none_outlives_close(
        self, small_sbm, created_segments
    ):
        """Over epochs whose births outgrow the segment headroom, the
        segments this process created that still exist are exactly the
        service's current and spare sets after every update, answers
        stay bitwise a fresh fit, and none of them survives close().
        Only this process's segments count, so another process
        publishing alongside cannot fail the check."""
        config = LacaConfig(k=8)
        model = LACA(config).fit(small_sbm)
        rng = np.random.default_rng(11)
        service = ClusterService(model, workers=2, cache_size=0, max_wait_s=0.0)
        try:
            pool = service._pool
            head = small_sbm
            for _ in range(7):  # 120 -> 162 nodes, +35%: past the 1/8 headroom
                service.apply_update(_births(head, 6, rng), timeout=60)
                head = service.store.head
                live = created_segments.present()
                current, spare = _segment_names(pool._shared), _segment_names(pool._spare)
                assert not current & spare
                assert live == current | spare
                assert len(live) <= 2 * 6  # two sets of six arrays at most
                fresh = LACA(config).fit(head)
                for seed in (0, 50, head.n - 1):
                    np.testing.assert_array_equal(
                        service.cluster(seed, 15), fresh.cluster(seed, 15)
                    )
            # The births really outgrew some segments (they were re-created).
            assert len(set(created_segments.names)) > 2 * 6
        finally:
            service.close(timeout=30)
        assert not created_segments.present()


_ORPHAN_SCRIPT = """
import sys, time
sys.path.insert(0, {src!r})
from repro.core.config import LacaConfig
from repro.core.pipeline import LACA
from repro.graphs.generators import plain_sbm
from repro.serving import ClusterService

graph = plain_sbm(n=120, n_communities=3, avg_degree=6.0, mixing=0.1, seed=1)
service = ClusterService(LACA(LacaConfig(k=8)).fit(graph), workers=2)
service.cluster(0, 10)
names = [spec["segment"] for spec in service._pool._shared.manifest["arrays"].values()]
print(" ".join(str(proc.pid) for proc in service._procs), flush=True)
print(" ".join(names), flush=True)
time.sleep(600)
"""


def _gone_or_zombie(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            # The state follows the parenthesized command name.
            return handle.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


@pytest.mark.skipif(not Path("/proc").is_dir(), reason="reads process states from /proc")
class TestOrphanedWorkers:
    def test_workers_exit_when_their_parent_is_killed(self):
        """A parent SIGKILLed without close() takes its workers with it:
        each watches the parent's sentinel instead of blocking forever
        on its task queue."""
        parent = subprocess.Popen(
            [sys.executable, "-c", _ORPHAN_SCRIPT.format(src=str(SRC))],
            stdout=subprocess.PIPE,
            text=True,
        )
        pids: list[int] = []
        names: list[str] = []
        try:
            pids = [int(pid) for pid in parent.stdout.readline().split()]
            names = parent.stdout.readline().split()
            assert len(pids) == 2
            parent.send_signal(signal.SIGKILL)
            parent.wait(10)
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline and not all(
                _gone_or_zombie(pid) for pid in pids
            ):
                time.sleep(0.05)
            assert all(_gone_or_zombie(pid) for pid in pids)
        finally:
            parent.kill()
            parent.wait(10)
            parent.stdout.close()
            for pid in pids:  # don't leak workers when the assertion fails
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            # The dead parent never unlinked its snapshot.
            for name in names:
                try:
                    os.unlink(f"/dev/shm/{name}")
                except FileNotFoundError:
                    pass


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
        """With nothing able to drain (the only worker dead for good and
        the dispatcher's in-process engine held), exactly max_pending
        requests are admitted and the rest are shed."""
        model = _model(small_sbm)
        service = ClusterService(
            model,
            workers=1,
            max_pending=3,
            max_wait_s=0.0,
            cache_size=0,
            # The dead worker must stay dead, so every block goes to
            # the held in-process engine.
            restart_budget=0,
            max_retries=0,
        )
        started, release = threading.Event(), threading.Event()
        scores = model.scores

        def held_scores(seed):
            started.set()
            release.wait(30)
            return scores(seed)

        try:
            service._procs[0].terminate()
            service._procs[0].join(10)
            deadline = time.monotonic() + 15
            while service.stats()["workers_alive"] and time.monotonic() < deadline:
                time.sleep(0.02)
            assert service.stats()["workers_alive"] == 0
            model.scores = held_scores
            results = []
            for seed in range(10):
                try:
                    results.append(service.submit(seed, 10))
                except PoolSaturated:
                    results.append(None)
                if seed == 0:
                    assert started.wait(10)  # the dispatcher holds seed 0
            live = [future for future in results if future is not None]
            assert len(live) == 3
            assert service.stats()["shed"] == 7
            release.set()
            for future in live:
                assert len(future.result(timeout=60)) == 10
        finally:
            release.set()
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

    def test_starts_one_pool_thread(self, small_sbm):
        """Results, acks, deaths and respawns share one pool thread next
        to the dispatcher, and close() ends both."""
        threads = set(threading.enumerate())
        service = ClusterService(_model(small_sbm), workers=2, name="pooled")
        try:
            assert len(service.cluster(0, 10)) == 10
            started = set(threading.enumerate()) - threads
            assert sorted(thread.name for thread in started) == [
                "cluster-pool-pooled",
                "cluster-service-pooled",
            ]
        finally:
            assert service.close(timeout=60) is True
        assert set(threading.enumerate()) - threads == set()

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
                time.sleep(0.01)  # the pool thread wakes on the sentinel
            assert service._pool._worker_dead[0]
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
