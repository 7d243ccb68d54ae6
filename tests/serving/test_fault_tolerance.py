"""Fault-tolerance tests: supervision, respawn, idempotent retry,
in-process answering while no worker is alive, and close idempotency —
all under the seeded fault-injection harness (repro.testing.faults), so
every "crash" here is a deterministic regression test, not a flaky race.

The governing contract stays the pool's original one: answers bitwise
identical to ``LACA.cluster`` and no future ever hangs — now upheld
*through* worker deaths rather than only in their absence.
"""

import multiprocessing
import multiprocessing.connection
import os
import pickle
import signal
import struct
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import LacaConfig
from repro.core.pipeline import LACA
from repro.graphs import GraphDelta, GraphStore
from repro.serving import ClusterService, DeadlineExceeded, WorkerError
from repro.serving.pool import START_METHOD
from repro.testing import FaultError, FaultPlan, FaultRule


def _model(graph, **overrides):
    overrides.setdefault("k", 8)
    return LACA(LacaConfig(**overrides)).fit(graph)


def _wait(predicate, timeout=15.0, interval=0.02):
    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class TestRetryAndRespawn:
    def test_kill_storm_answers_everything_bitwise(self, small_sbm):
        """SIGKILL k-1 of k workers mid-storm: every submitted future
        must still resolve, bitwise-equal to the sequential oracle, and
        the restarts/retries must be visible in stats()."""
        model = _model(small_sbm)
        oracle = {seed: model.cluster(seed, 15) for seed in range(40)}
        plan = FaultPlan(
            [
                # each of workers 0 and 1 hard-dies on its first block
                # of its first incarnation (worker 2 survives)
                FaultRule(
                    site="worker.block",
                    match={"worker_id": 0, "spawn": 0},
                    action="exit",
                ),
                FaultRule(
                    site="worker.block",
                    match={"worker_id": 1, "spawn": 0},
                    action="exit",
                ),
            ]
        )
        service = ClusterService(
            _model(small_sbm),
            workers=3,
            fault_plan=plan,
            backoff_base_s=0.05,
            max_wait_s=0.0,
            max_batch=4,
            cache_size=0,
        )
        try:
            futures = {
                seed: service.submit(seed, 15) for seed in range(40)
            }
            for seed, future in futures.items():
                np.testing.assert_array_equal(
                    future.result(timeout=60), oracle[seed]
                )
            assert _wait(
                lambda: service.stats()["workers_alive"] == 3
            ), "killed workers were not respawned"
            stats = service.stats()
            assert stats["worker_restarts"] >= 2
            assert stats["block_retries"] >= 1
        finally:
            service.close(timeout=60)

    def test_lost_shard_is_retried_alone(self, small_sbm, tmp_path):
        """One gathered block is split over both workers; killing the
        worker holding the first shard retries that shard alone, while
        the other shard's futures resolve on their first dispatch."""
        import json

        from repro.obs import TraceLog

        model = _model(small_sbm)
        seeds = list(range(8))
        oracle = {seed: model.cluster(seed, 12) for seed in seeds}
        plan = FaultPlan(
            [
                # The least-loaded order is stable, so worker 0 gets the
                # first shard; its first incarnation dies on it.
                FaultRule(
                    site="worker.block",
                    match={"worker_id": 0, "spawn": 0},
                    action="exit",
                )
            ]
        )
        path = tmp_path / "trace.jsonl"
        trace = TraceLog(path)
        threads_before = set(threading.enumerate())
        service = ClusterService(
            _model(small_sbm),
            workers=2,
            fault_plan=plan,
            backoff_base_s=0.05,
            max_batch=len(seeds),
            max_wait_s=0.5,
            cache_size=0,
            trace_log=trace,
        )
        try:
            futures = [service.submit(seed, 12) for seed in seeds]
            for seed, future in zip(seeds, futures):
                np.testing.assert_array_equal(
                    future.result(timeout=60), oracle[seed]
                )
            stats = service.stats()
        finally:
            clean = service.close(timeout=60)
            trace.close()
        assert clean is True
        assert stats["block_retries"] == 1
        assert all(future.done() for future in futures)
        leftover = [
            thread.name
            for thread in threading.enumerate()
            if thread not in threads_before
        ]
        assert leftover == []
        events = [json.loads(line) for line in path.read_text().splitlines()]
        (retry,) = [event for event in events if event["event"] == "block_retry"]
        assert retry["worker_id"] == 0 and retry["requests"] == 4
        requests = [event for event in events if event["event"] == "request"]
        assert len(requests) == len(seeds)
        retried = {event["seed"] for event in requests if event.get("retries")}
        first_try = {event["seed"] for event in requests if not event.get("retries")}
        assert retried == set(seeds[:4])
        assert first_try == set(seeds[4:])
        assert all(
            event["worker_id"] == 1 for event in requests if event["seed"] in first_try
        )

    def test_respawned_worker_rejoins_at_current_epoch(self, small_sbm):
        """A worker killed before an epoch advance must come back
        hydrated from the *new* generation's manifest and serve the new
        epoch bitwise."""
        store = GraphStore(small_sbm)
        plan = FaultPlan(
            [
                FaultRule(
                    site="worker.block",
                    match={"worker_id": 0, "spawn": 0},
                    action="exit",
                )
            ]
        )
        service = ClusterService(
            _model(small_sbm),
            store=store,
            workers=2,
            fault_plan=plan,
            backoff_base_s=0.4,  # long enough to land the update first
            max_wait_s=0.0,
            cache_size=0,
        )
        try:
            futures = [service.submit(seed, 12) for seed in range(8)]
            for future in futures:
                future.result(timeout=60)  # the kill + retry happened
            service.apply_update(
                GraphDelta(add_edges=np.array([[0, 70], [1, 80]])),
                timeout=60,
            )
            assert _wait(
                lambda: service.stats()["workers_alive"] == 2
            ), "killed worker was not respawned"
            oracle = _model(store.head)
            for seed in range(8):
                np.testing.assert_array_equal(
                    service.cluster(seed, 12), oracle.cluster(seed, 12)
                )
            stats = service.stats()
            assert stats["epoch"] == store.head.epoch
            assert stats["worker_restarts"] == 1
        finally:
            service.close(timeout=60)

    def test_all_workers_dead_answers_in_process_until_respawn(
        self, small_sbm, tmp_path
    ):
        """Losing *every* worker while a respawn is scheduled: the
        dispatcher answers the lost blocks itself, bitwise, instead of
        holding them for the respawn or failing the service; once the
        respawns land, blocks go back to the workers."""
        import json

        from repro.obs import TraceLog

        model = _model(small_sbm)
        oracle = {seed: model.cluster(seed, 12) for seed in range(20)}
        plan = FaultPlan(
            # every first-incarnation worker dies on its first block
            [FaultRule(site="worker.block", match={"spawn": 0},
                       action="exit", times=2)]
        )
        path = tmp_path / "trace.jsonl"
        trace = TraceLog(path)
        service = ClusterService(
            _model(small_sbm),
            workers=2,
            fault_plan=plan,
            backoff_base_s=1.0,  # lost blocks are answered before a respawn
            max_wait_s=0.0,
            cache_size=0,
            trace_log=trace,
        )
        try:
            futures = {seed: service.submit(seed, 12) for seed in range(20)}
            for seed, future in futures.items():
                np.testing.assert_array_equal(
                    future.result(timeout=60), oracle[seed]
                )
            assert _wait(lambda: service.stats()["workers_alive"] == 2)
            before = service.stats()
            for seed in range(4):
                np.testing.assert_array_equal(
                    service.cluster(seed, 12), oracle[seed]
                )
            after = service.stats()
        finally:
            assert service.close(timeout=60) is True
            trace.close()
        assert after["worker_restarts"] == 2
        assert after["fallback_active"] is False

        def pool_seeds(stats):
            return sum(entry["seeds"] for entry in stats["worker_occupancy"].values())

        # Some lost requests were answered in-process (engine_served
        # counts them, no worker's occupancy does) ...
        assert before["engine_served"] == 20 > pool_seeds(before)
        # ... and the respawned workers answered the last four.
        assert pool_seeds(after) == pool_seeds(before) + 4
        events = [json.loads(line) for line in path.read_text().splitlines()]
        flips = [
            event["active"] for event in events
            if event["event"] == "fallback_inprocess"
        ]
        assert flips == [True, False]

    def test_workers_killed_together_cost_one_retry(self, small_sbm, tmp_path):
        """Both workers die while the test holds the pool lock, the
        second after the pool thread has seen the first die: both are
        marked dead before any of their blocks is retried, so no retry
        is dispatched to the other dead worker.  With ``max_retries=1``
        every lost request retries exactly once, and every answer is
        bitwise ``LACA.cluster``."""
        import json

        from repro.obs import TraceLog

        model = _model(small_sbm)
        seeds = [0, 1, 2, 3]
        oracle = {seed: model.cluster(seed, 12) for seed in seeds}
        # Each first incarnation holds its first block until it is killed.
        plan = FaultPlan(
            [FaultRule(site="worker.block", match={"spawn": 0}, action="delay", delay_s=60.0)]
        )
        path = tmp_path / "trace.jsonl"
        trace = TraceLog(path)
        service = ClusterService(
            _model(small_sbm),
            workers=2,
            fault_plan=plan,
            max_retries=1,
            backoff_base_s=0.05,
            max_batch=1,
            max_wait_s=0.0,
            cache_size=0,
            trace_log=trace,
        )
        pool = service._pool
        try:
            futures = [service.submit(seed, 12) for seed in seeds]
            # One block per request, alternating over the two workers.
            assert _wait(lambda: service.stats()["inflight_blocks"] == len(seeds))
            with pool._lock:
                for proc in service._procs:
                    os.kill(proc.pid, signal.SIGKILL)
                    assert multiprocessing.connection.wait([proc.sentinel], 30)
                    # The pool thread wakes on this death and then waits
                    # for the lock this test holds.
                    time.sleep(0.2)
            for seed, future in zip(seeds, futures):
                np.testing.assert_array_equal(future.result(timeout=60), oracle[seed])
            stats = service.stats()
        finally:
            clean = service.close(timeout=60)
            trace.close()
        assert clean is True
        assert stats["block_retries"] == len(seeds)
        assert stats["errors"] == 0
        events = [json.loads(line) for line in path.read_text().splitlines()]
        deaths = [event for event in events if event["event"] == "worker_death"]
        assert sorted(event["worker_id"] for event in deaths) == [0, 1]
        assert sum(event["lost_blocks"] for event in deaths) == len(seeds)
        requests = [event for event in events if event["event"] == "request"]
        assert sorted(event["seed"] for event in requests) == seeds
        assert [event.get("retries") for event in requests] == [1] * len(seeds)

    def test_dropped_result_is_recovered_by_retry(self, small_sbm):
        """A result message lost in transit (collector-side drop): the
        orphaned block is recovered when its worker later dies and the
        supervisor retries everything that worker still owed."""
        model = _model(small_sbm)
        plan = FaultPlan(
            [
                # lose the first result message parent-side...
                FaultRule(
                    site="pool.result", match={"kind": "result"},
                    action="drop",
                ),
                # ...then kill the (sole) worker on its second block
                FaultRule(
                    site="worker.block",
                    match={"spawn": 0, "block_index": 1},
                    action="exit",
                ),
            ]
        )
        service = ClusterService(
            _model(small_sbm),
            workers=1,
            fault_plan=plan,
            backoff_base_s=0.05,
            max_wait_s=0.0,
            cache_size=0,
        )
        try:
            orphan = service.submit(0, 12)
            # Wait until the drop demonstrably happened before sending
            # the kill block — otherwise the worker's os._exit could eat
            # the first result in the pipe and the drop would land on
            # the *retried* result instead (a permanent orphan).
            assert _wait(lambda: plan.fire_count("pool.result") == 1)
            assert not orphan.done()
            victim = service.submit(1, 12)
            np.testing.assert_array_equal(
                orphan.result(timeout=60), model.cluster(0, 12)
            )
            np.testing.assert_array_equal(
                victim.result(timeout=60), model.cluster(1, 12)
            )
            assert service.stats()["block_retries"] == 2
        finally:
            service.close(timeout=60)

    def test_sent_answer_is_never_retried(self, small_sbm, tmp_path):
        """Answers a worker sent before it died resolve from that worker;
        only the block it died on is retried.  The parent holds its first
        answer for 0.5 s while the worker answers two more blocks and
        exits at the start of its fourth, so two answers still wait in
        the worker's pipe when its sentinel fires."""
        import json

        from repro.obs import TraceLog

        model = _model(small_sbm)
        plan = FaultPlan(
            [
                FaultRule(
                    site="worker.block",
                    match={"spawn": 0, "block_index": 3},
                    action="exit",
                ),
                FaultRule(
                    site="pool.result", match={"kind": "result"},
                    action="delay", delay_s=0.5,
                ),
            ]
        )
        path = tmp_path / "trace.jsonl"
        trace = TraceLog(path)
        service = ClusterService(
            _model(small_sbm),
            workers=1,
            fault_plan=plan,
            backoff_base_s=0.05,
            max_batch=1,
            max_wait_s=0.0,
            cache_size=0,
            trace_log=trace,
        )
        seeds = [0, 1, 2, 3]
        try:
            futures = [service.submit(seed, 12) for seed in seeds]
            for seed, future in zip(seeds, futures):
                np.testing.assert_array_equal(
                    future.result(timeout=60), model.cluster(seed, 12)
                )
            assert service.stats()["block_retries"] == 1
        finally:
            assert service.close(timeout=60) is True
            trace.close()
        events = [json.loads(line) for line in path.read_text().splitlines()]
        requests = {
            event["seed"]: event for event in events if event["event"] == "request"
        }
        for seed in seeds[:3]:
            assert requests[seed]["worker_id"] == 0
            assert not requests[seed].get("retries")
        assert requests[3]["retries"] == 1
        (retry,) = [event for event in events if event["event"] == "block_retry"]
        assert retry["requests"] == 1

    def test_retries_exhausted_fails_with_cause(self, small_sbm):
        """max_retries=0 pins the legacy contract: a lost block fails
        its futures immediately, chained to the worker-death cause."""
        plan = FaultPlan(
            [FaultRule(site="worker.block", action="exit", times=0)]
        )
        service = ClusterService(
            _model(small_sbm),
            workers=1,
            fault_plan=plan,
            max_retries=0,
            restart_budget=2,
            backoff_base_s=0.05,
            max_wait_s=0.0,
            cache_size=0,
        )
        try:
            future = service.submit(0, 10)
            with pytest.raises(RuntimeError, match="out of retries") as info:
                future.result(timeout=60)
            assert "died" in str(info.value.__cause__)
        finally:
            service.close(timeout=60)

    def test_restart_budget_exhaustion_answers_in_process(
        self, small_sbm, created_segments
    ):
        """When every incarnation dies and the budget runs out, the
        dispatcher answers every block itself: bitwise answers, the
        service stays up, and an update still lands with no live worker
        to reload."""
        model = _model(small_sbm)
        oracle = {seed: model.cluster(seed, 10) for seed in range(12)}
        plan = FaultPlan(
            [FaultRule(site="worker.block", action="exit", times=0)]
        )
        service = ClusterService(
            _model(small_sbm),
            workers=1,
            fault_plan=plan,
            max_retries=5,
            restart_budget=1,
            backoff_base_s=0.02,
            max_wait_s=0.0,
            cache_size=0,
        )
        try:
            futures = {seed: service.submit(seed, 10) for seed in range(6)}
            for seed, future in futures.items():
                np.testing.assert_array_equal(
                    future.result(timeout=60), oracle[seed]
                )
            # The one respawn dies on the first block it takes.
            assert _wait(lambda: service.stats()["worker_restarts"] == 1)
            for seed in range(6, 12):
                np.testing.assert_array_equal(
                    service.cluster(seed, 10), oracle[seed]
                )
            stats = service.stats()
            assert service._failed is None
            assert stats["workers_alive"] == 0
            assert stats["fallback_active"] is True
            assert stats["worker_restarts"] == 1
            families = {
                family["name"]: family
                for family in service.telemetry.registry.collect()
            }
            assert families["laca_fallback_active"]["samples"] == [[[], 1.0]]
            service.apply_update(
                GraphDelta(add_edges=np.array([[0, 70]])), timeout=60
            )
            fresh = _model(service.store.head)
            for seed in range(4):
                np.testing.assert_array_equal(
                    service.cluster(seed, 10), fresh.cluster(seed, 10)
                )
            assert service.stats()["epoch"] == service.store.head.epoch
        finally:
            assert service.close(timeout=60) is True
        assert created_segments.names
        assert not created_segments.present()

    def test_engine_crash_fails_block_but_worker_survives(self, small_sbm):
        """action='raise' emulates an engine bug: the block fails with
        the portable error, the worker keeps serving, nothing respawns."""
        model = _model(small_sbm)
        plan = FaultPlan([FaultRule(site="worker.block")])
        service = ClusterService(
            _model(small_sbm),
            workers=1,
            fault_plan=plan,
            max_wait_s=0.0,
            cache_size=0,
        )
        try:
            failing = service.submit(0, 10)
            with pytest.raises(FaultError, match="injected"):
                failing.result(timeout=60)
            np.testing.assert_array_equal(
                service.cluster(1, 10), model.cluster(1, 10)
            )
            assert service.stats()["worker_restarts"] == 0
        finally:
            service.close(timeout=60)

    def test_unpicklable_worker_error_stays_informative(self, small_sbm):
        """Satellite: a worker exception whose class cannot pickle must
        surface as WorkerError carrying the original type and message,
        not as an opaque transport failure."""
        plan = FaultPlan(
            [
                FaultRule(
                    site="worker.block",
                    exc="unpicklable",
                    message="lock-holding boom",
                )
            ]
        )
        service = ClusterService(
            _model(small_sbm),
            workers=1,
            fault_plan=plan,
            max_wait_s=0.0,
            cache_size=0,
        )
        try:
            future = service.submit(0, 10)
            with pytest.raises(WorkerError) as info:
                future.result(timeout=60)
            assert info.value.original_type == "UnpicklableFault"
            assert info.value.original_message == "lock-holding boom"
            assert "UnpicklableFault" in info.value.traceback_text
        finally:
            service.close(timeout=60)

    def test_deadline_still_honored_across_worker_death(self, small_sbm):
        """A request whose worker holds it past its deadline and then
        dies must fail with DeadlineExceeded when it is retried, never
        compute late (not even in-process)."""
        plan = FaultPlan(
            [FaultRule(site="worker.block", match={"spawn": 0},
                       action="delay", delay_s=30.0)]
        )
        service = ClusterService(
            _model(small_sbm),
            workers=1,
            fault_plan=plan,
            deadline_s=0.1,
            max_wait_s=0.0,
            cache_size=0,
        )
        try:
            future = service.submit(0, 10)
            assert _wait(lambda: service.stats()["inflight_blocks"] == 1)
            time.sleep(0.2)  # the worker holds the block past the deadline
            os.kill(service._procs[0].pid, signal.SIGKILL)
            with pytest.raises(DeadlineExceeded):
                future.result(timeout=60)
            stats = service.stats()
            assert stats["deadline_misses"] == 1
            assert stats["engine_served"] == 0
        finally:
            assert service.close(timeout=60) is True


def _unpickle_fails():
    raise RuntimeError("injected: this message cannot unpickle")


class _Unreadable:
    """Pickles fine in the worker; loading it raises in the parent."""

    def __reduce__(self):
        return (_unpickle_fails, ())


class TestWorkerPipes:
    @pytest.mark.skipif(
        START_METHOD != "fork", reason="patches the worker's send through fork"
    )
    @pytest.mark.parametrize("fault", ["torn", "unreadable"])
    def test_broken_message_is_one_workers_death(self, small_sbm, monkeypatch, fault):
        """Worker 0 writes half a result frame and dies ("torn"), or
        sends a result the parent cannot unpickle ("unreadable").  Only
        its own pipe is affected: the parent counts it as worker 0's
        death (the unreadable message also as a collector error),
        retries its shard, the other worker's shards keep resolving
        bitwise, and close() returns in time."""
        model = _model(small_sbm)
        seeds = list(range(16))
        oracle = {seed: model.cluster(seed, 12) for seed in seeds}
        send = multiprocessing.connection.Connection.send

        def faulty_send(conn, message):
            if (
                multiprocessing.current_process().name == "cluster-pool-worker-0"
                and message[0] == "result"
            ):
                if fault == "torn":
                    frame = pickle.dumps(message)
                    conn._send(struct.pack("!i", len(frame)) + frame[: len(frame) // 2])
                    os._exit(17)
                message = ("result", message[1], _Unreadable(), None)
            send(conn, message)

        # Forked workers inherit the patched class; the parent's own
        # sends, and a respawned worker ("-r1"), take the real path.
        monkeypatch.setattr(multiprocessing.connection.Connection, "send", faulty_send)
        service = ClusterService(
            _model(small_sbm),
            workers=2,
            backoff_base_s=0.05,
            max_batch=8,
            max_wait_s=0.5,
            cache_size=0,
        )
        try:
            for block in (seeds[:8], seeds[8:]):
                futures = [service.submit(seed, 12) for seed in block]
                for seed, future in zip(block, futures):
                    np.testing.assert_array_equal(
                        future.result(timeout=60), oracle[seed]
                    )
            stats = service.stats()
            assert stats["block_retries"] == 1
            assert stats["errors_by_kind"] == (
                {} if fault == "torn" else {"collector": 1}
            )
        finally:
            started = time.monotonic()
            assert service.close(timeout=30) is True
            assert time.monotonic() - started < 30

    @pytest.mark.skipif(
        not Path("/proc/self/fd").is_dir(), reason="counts descriptors in /proc"
    )
    def test_respawns_leak_no_descriptor(self, small_sbm):
        """Three kills, three respawns and close() leave the parent with
        exactly the descriptors it had before the service: each respawn
        gets a fresh pipe, and the dead worker's pipe and process handle
        are closed."""
        from multiprocessing import resource_tracker

        model = _model(small_sbm)
        oracle = {seed: model.cluster(seed, 10) for seed in range(40)}
        plan = FaultPlan(
            [
                FaultRule(site="worker.block", match=match, action="exit")
                for match in (
                    {"worker_id": 0, "spawn": 0},
                    {"worker_id": 1, "spawn": 0},
                    {"worker_id": 0, "spawn": 1},
                )
            ]
        )
        # The tracker's pipe lives as long as this process; start it
        # before counting rather than inside the service.
        resource_tracker.ensure_running()
        before = len(os.listdir("/proc/self/fd"))
        service = ClusterService(
            model,
            workers=2,
            fault_plan=plan,
            max_retries=5,
            backoff_base_s=0.05,
            max_wait_s=0.0,
            cache_size=0,
        )
        try:
            for seed in range(40):
                np.testing.assert_array_equal(
                    service.cluster(seed, 10), oracle[seed]
                )
                stats = service.stats()
                if stats["worker_restarts"] == 3 and stats["workers_alive"] == 2:
                    break
            assert _wait(lambda: service.stats()["workers_alive"] == 2)
            assert service.stats()["worker_restarts"] == 3
        finally:
            assert service.close(timeout=60) is True
        assert len(os.listdir("/proc/self/fd")) == before


class TestFallback:
    def test_fallback_serves_bitwise_when_pool_is_gone(self, small_sbm):
        """With no respawn budget, losing every worker degrades to
        dispatcher-thread answering — same bitwise answers,
        laca_fallback_active flips to 1."""
        model = _model(small_sbm)
        oracle = {seed: model.cluster(seed, 12) for seed in range(16)}
        plan = FaultPlan(
            [FaultRule(site="worker.block", action="exit", times=0)]
        )
        service = ClusterService(
            _model(small_sbm),
            workers=2,
            fault_plan=plan,
            restart_budget=0,
            max_retries=4,
            max_wait_s=0.0,
            cache_size=0,
        )
        try:
            futures = {seed: service.submit(seed, 12) for seed in range(16)}
            for seed, future in futures.items():
                np.testing.assert_array_equal(
                    future.result(timeout=60), oracle[seed]
                )
            stats = service.stats()
            assert stats["fallback_active"] is True
            assert stats["workers_alive"] == 0
            families = {
                family["name"]: family
                for family in service.telemetry.registry.collect()
            }
            assert families["laca_fallback_active"]["samples"] == [[[], 1.0]]
        finally:
            service.close(timeout=60)

    def test_pool_that_can_never_respawn_drops_its_segments(
        self, small_sbm, created_segments
    ):
        """A ``workers=1``, ``restart_budget=0`` pool whose worker was
        SIGKILLed can never have a reader again: its next update unlinks
        every segment it published, later updates publish nothing, and
        every answer stays bitwise a fresh fit of its epoch."""
        config = LacaConfig(k=8)
        service = ClusterService(
            LACA(config).fit(small_sbm),
            workers=1,
            restart_budget=0,
            max_wait_s=0.0,
            cache_size=0,
        )
        try:
            published = list(created_segments.names)
            assert published and created_segments.present() == set(published)
            os.kill(service._procs[0].pid, signal.SIGKILL)
            assert _wait(lambda: service.stats()["workers_alive"] == 0)
            for target in (70, 90, 101):
                service.apply_update(GraphDelta(add_edges=[(0, target)]), timeout=60)
                assert not created_segments.present()
                assert created_segments.names == published
                fresh = LACA(config).fit(service.store.head)
                for seed in (0, 5, 33):
                    np.testing.assert_array_equal(
                        service.cluster(seed, 12), fresh.cluster(seed, 12)
                    )
            stats = service.stats()
            assert stats["fallback_active"] is True
            assert stats["worker_restarts"] == 0
        finally:
            assert service.close(timeout=60) is True

    def test_broken_task_pipe_retries_every_block_the_worker_owed(
        self, small_sbm
    ):
        """A pipe write that fails in ``dispatch`` ends its worker; every
        block that worker still owed must be retried with the new one,
        not only the block being sent (the earlier one's future used to
        hang, even past close())."""
        model = _model(small_sbm)
        plan = FaultPlan(
            # Holds block A in flight on the worker while B is sent.
            [FaultRule(site="worker.block", action="delay", delay_s=2.0)]
        )
        service = ClusterService(
            _model(small_sbm),
            workers=1,
            fault_plan=plan,
            restart_budget=0,
            max_batch=1,
            max_wait_s=0.0,
            cache_size=0,
        )

        def broken_send(_message):
            raise BrokenPipeError("injected: task pipe broke")

        conn = service._pool._conns[0]
        try:
            first = service.submit(0, 10)
            assert _wait(lambda: service.stats()["inflight_blocks"] == 1)
            conn.send = broken_send
            second = service.submit(1, 10)
            for seed, future in ((0, first), (1, second)):
                np.testing.assert_array_equal(
                    future.result(timeout=30), model.cluster(seed, 10)
                )
            stats = service.stats()
            assert stats["block_retries"] == 2
            assert stats["fallback_active"] is True
        finally:
            del conn.send
            assert service.close(timeout=60) is True

    def test_fallback_survives_epoch_advance(self, small_sbm):
        """Updates keep landing while in fallback: the parent model
        refreshes and fallback answers serve the new epoch."""
        store = GraphStore(small_sbm)
        plan = FaultPlan(
            [FaultRule(site="worker.block", action="exit", times=0)]
        )
        service = ClusterService(
            _model(small_sbm),
            store=store,
            workers=1,
            fault_plan=plan,
            restart_budget=0,
            max_retries=2,
            max_wait_s=0.0,
            cache_size=0,
        )
        try:
            service.cluster(0, 12)  # kills the worker, lands via fallback
            service.apply_update(
                GraphDelta(add_edges=np.array([[0, 70]])), timeout=60
            )
            oracle = _model(store.head)
            for seed in range(6):
                np.testing.assert_array_equal(
                    service.cluster(seed, 12), oracle.cluster(seed, 12)
                )
            assert service.stats()["epoch"] == store.head.epoch
        finally:
            service.close(timeout=60)


class TestReloadBarrierFaults:
    def test_delayed_reload_ack_still_lands(self, small_sbm):
        """A slow worker delays its reload ack; the barrier must wait it
        out and the update must land (not time out, not fail)."""
        store = GraphStore(small_sbm)
        plan = FaultPlan(
            [
                FaultRule(
                    site="worker.reload",
                    match={"worker_id": 0},
                    action="delay",
                    delay_s=0.3,
                )
            ]
        )
        service = ClusterService(
            _model(small_sbm),
            store=store,
            workers=2,
            fault_plan=plan,
            max_wait_s=0.0,
            cache_size=0,
        )
        try:
            service.apply_update(
                GraphDelta(add_edges=np.array([[0, 70]])), timeout=60
            )
            oracle = _model(store.head)
            np.testing.assert_array_equal(
                service.cluster(0, 12), oracle.cluster(0, 12)
            )
        finally:
            service.close(timeout=60)

    def test_reload_failure_fails_service_closed(self, small_sbm):
        """A worker that cannot reload must fail the whole service (it
        would otherwise silently serve the old epoch)."""
        store = GraphStore(small_sbm)
        plan = FaultPlan(
            [FaultRule(site="worker.reload", match={"worker_id": 0})]
        )
        service = ClusterService(
            _model(small_sbm),
            store=store,
            workers=2,
            fault_plan=plan,
            restart_budget=0,
            max_wait_s=0.0,
            cache_size=0,
        )
        try:
            with pytest.raises(RuntimeError, match="reload failed"):
                service.apply_update(
                    GraphDelta(add_edges=np.array([[0, 70]])), timeout=60
                )
            with pytest.raises(RuntimeError, match="failed"):
                service.submit(0, 12)
        finally:
            service.close(timeout=60)

    def test_worker_death_mid_barrier_does_not_hang_update(self, small_sbm):
        """A worker that dies instead of acking its reload must be
        dropped from the barrier by the supervisor — the update lands on
        the survivors' acks."""
        store = GraphStore(small_sbm)
        plan = FaultPlan(
            [
                FaultRule(
                    site="worker.reload",
                    match={"worker_id": 0, "spawn": 0},
                    action="exit",
                )
            ]
        )
        service = ClusterService(
            _model(small_sbm),
            store=store,
            workers=2,
            fault_plan=plan,
            backoff_base_s=0.05,
            max_wait_s=0.0,
            cache_size=0,
        )
        try:
            service.apply_update(
                GraphDelta(add_edges=np.array([[0, 70]])), timeout=60
            )
            oracle = _model(store.head)
            np.testing.assert_array_equal(
                service.cluster(0, 12), oracle.cluster(0, 12)
            )
            # the respawned worker 0 must rejoin at the new generation
            assert _wait(
                lambda: service.stats()["workers_alive"] == 2
            )
            for seed in range(8):  # spread across both workers
                np.testing.assert_array_equal(
                    service.cluster(seed, 12), oracle.cluster(seed, 12)
                )
        finally:
            service.close(timeout=60)


class TestCloseIdempotency:
    def test_pool_double_close_returns_first_result(self, small_sbm):
        service = ClusterService(_model(small_sbm), workers=1)
        service.cluster(0, 10)
        first = service.close(timeout=60)
        assert first is True
        assert service.close(timeout=60) is True

    def test_pool_concurrent_close_is_race_free(self, small_sbm):
        """Two threads racing close() must both observe a clean result
        instead of racing the thread joins."""
        service = ClusterService(_model(small_sbm), workers=1)
        results = []

        def closer():
            results.append(service.close(timeout=60))

        threads = [threading.Thread(target=closer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(90)
        assert results == [True, True, True, True]

    def test_inprocess_double_close_returns_first_result(self, small_sbm):
        service = ClusterService(_model(small_sbm))
        service.cluster(0, 10)
        assert service.close(timeout=60) is True
        assert service.close(timeout=60) is True

    def test_inprocess_concurrent_close_is_race_free(self, small_sbm):
        service = ClusterService(_model(small_sbm))
        results = []

        def closer():
            results.append(service.close(timeout=60))

        threads = [threading.Thread(target=closer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(90)
        assert results == [True, True, True, True]


class TestSpanLifecycle:
    def test_retried_span_records_retry_count(self, small_sbm, tmp_path):
        """Sampled spans of retried requests carry their retry count,
        and the trace log shows the death/retry/respawn lifecycle."""
        import json

        from repro.obs import TraceLog

        plan = FaultPlan(
            [FaultRule(site="worker.block", match={"spawn": 0},
                       action="exit")]
        )
        path = tmp_path / "trace.jsonl"
        trace = TraceLog(path)
        service = ClusterService(
            _model(small_sbm),
            workers=1,
            fault_plan=plan,
            backoff_base_s=0.05,
            max_wait_s=0.0,
            cache_size=0,
            trace_log=trace,
        )
        try:
            service.cluster(0, 10)
            assert _wait(lambda: service.stats()["workers_alive"] == 1)
        finally:
            service.close(timeout=60)
            trace.close()
        events = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        kinds = {event["event"] for event in events}
        assert {"worker_death", "block_retry", "worker_respawn"} <= kinds
        request_events = [
            event for event in events
            if event["event"] == "request" and event.get("retries")
        ]
        assert request_events and request_events[0]["retries"] == 1


class TestResolveFailure:
    @pytest.mark.parametrize("workers", [0, 1])
    def test_failing_cache_insert_fails_every_block_future(
        self, small_sbm, workers
    ):
        """A step after the engine raising (here: the cache insert) must
        fail every future of the block with the cause, with and without
        worker processes.  The pool used to drop the block's in-flight
        entry before resolving, so its futures stayed pending forever,
        even after close()."""
        service = ClusterService(
            _model(small_sbm), workers=workers, max_wait_s=0.05
        )

        def broken_put(*_args, **_kwargs):
            raise ZeroDivisionError("cache insert exploded")

        service.cache.put = broken_put
        futures = [service.submit(seed, 10) for seed in (0, 1, 2)]
        for future in futures:
            with pytest.raises(RuntimeError, match="crashed") as info:
                future.result(timeout=10)
            assert isinstance(info.value.__cause__, ZeroDivisionError)
        assert service.close(timeout=30) is True
        assert all(future.done() for future in futures)
