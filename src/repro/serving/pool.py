"""Multi-process serving: the worker-pool back-end of ``ClusterService``.

With ``workers=0``, :class:`~repro.serving.service.ClusterService`
parallelizes only *within* a block (one sparse mat-mat for a saturated
remainder, or one thread per CPU for large local queries) and answers
blocks one after another.  With ``workers >= 1`` the service owns a
:class:`WorkerPool` that spreads each gathered block over worker
processes instead:

- the head snapshot's CSR arrays and TNAM factor are published **once**
  into :mod:`multiprocessing.shared_memory` segments
  (:func:`~repro.graphs.shm.publish_snapshot`); each worker attaches a
  zero-copy :class:`~repro.graphs.graph.AttributedGraph` view, hydrates
  a :class:`~repro.core.pipeline.LACA` from the parent's fit state
  (:meth:`LACA.from_fit_state` — no refitting), and owns a private
  :class:`~repro.diffusion.workspace.DiffusionWorkspace`, so it answers
  each block on one thread (the worker processes already fill the CPUs);
- the dispatcher thread gathers blocks exactly as with ``workers=0``,
  splits each into contiguous shards, at most one per live worker, and
  *assigns* each shard to one of the least-loaded live workers, then
  moves on — a collector thread resolves futures as shards stream back,
  so all workers compute concurrently, even on one gathered block;
- workers answer each shard with the same
  :func:`~repro.serving.service.answer_block` the dispatcher
  runs with ``workers=0``, over the same arrays (shared pages).  A
  sequential seed's answer depends only on that seed and a block column
  is bitwise the sequential answer, so a query gets the same answer
  whichever shard, worker or path computed it.

Every shard is an ordinary in-flight block with its own id: retry,
respawn, close() and the epoch barrier below never see the gathered
block it came from.

Fault tolerance (PR 8) rests on that: a cluster query is a pure
function of ``(snapshot, seed, size)`` and the block's engine path, so
recomputing a lost block *is* the answer, not an approximation of it.
Three mechanisms:

- **Supervision & respawn** — a supervisor thread detects dead workers,
  fails nothing, and respawns them with capped exponential backoff
  under a restart budget per sliding window.  Respawned workers
  re-hydrate from the shared-memory manifest *at the current
  generation* (the respawn path and the epoch barrier read/write the
  manifest under one lock), so they rejoin correctly even mid-update.
- **Idempotent block retry** — blocks in flight on a dead worker are
  re-enqueued onto the dispatcher queue (up to ``max_retries`` per
  request, per-request deadlines still honored) and re-dispatched to a
  surviving or respawned worker.  A retry that crossed an epoch
  advance is failed instead of recomputed — its cache key names the
  old snapshot.
- **In-process fallback** — with ``fallback_inprocess=True``, losing
  *every* worker degrades the service to answering blocks in its own
  process (the ``workers=0`` path, same answers) instead of
  failing it; the pool re-engages automatically once a respawn lands.

Epoch advances reuse the dispatch-queue marker and add a barrier:
:meth:`WorkerPool.reload` publishes the refreshed snapshot, enqueues a
``reload`` message on every worker's task queue — FIFO order *is* the
barrier: the reload rides behind every shard of every block gathered
before the marker, so no worker ever answers a post-marker request on a
pre-marker snapshot — and waits for all acks before unlinking the old
segments.
A worker that dies mid-barrier no longer hangs it: the supervisor
removes it from the pending-ack set.  A worker that fails to reload
fails the service closed (it could otherwise silently serve stale
answers).

The pool adds the fault-tolerance counters (``worker_restarts``,
``block_retries``) and its own figures (``workers_alive``,
``inflight_blocks``, ``parked_blocks``, ``fallback_active``) to
:meth:`ClusterService.stats`.
"""

from __future__ import annotations

import multiprocessing
import pickle
import queue
import threading
import time
import traceback

# ``top_k_cluster`` is not called here; it stays importable under this
# module's name because perfbench/layers.py wraps it at this name.
from ..core.laca import top_k_cluster  # noqa: F401
from ..core.pipeline import LACA
from ..core.routing import contiguous_cuts
from ..graphs.shm import attach_snapshot, publish_snapshot
from ..obs.metrics import MetricsRegistry
from .service import ClusterService, DeadlineExceeded, _Request, answer_block
from .telemetry import make_engine_metrics

__all__ = ["WorkerError", "WorkerPool"]

#: Multiprocessing start method: ``fork`` where available (Linux —
#: instant start), else ``spawn``.  Workers fork before the service
#: starts its dispatcher thread; respawns fork from a threaded parent,
#: which is safe for these workers because they touch only their own
#: state, the shared segments, and their queues.
START_METHOD = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
#: Sliding window over which one worker slot's respawns count against
#: ``restart_budget``.
RESTART_WINDOW_S = 60.0
#: Cap of the respawn backoff ``backoff_base_s * 2**k``.
BACKOFF_MAX_S = 5.0
#: How long an epoch advance waits for every worker to ack its reload
#: before failing the service closed.
RELOAD_TIMEOUT_S = 60.0
#: How often the supervisor sweeps for dead workers and due respawns.
SUPERVISE_INTERVAL_S = 0.05

#: The multi-process front-end's former name, kept for existing callers.
PoolClusterService = ClusterService


class WorkerError(RuntimeError):
    """Portable stand-in for a worker exception that cannot pickle.

    Queues pickle everything they carry; an exception class holding a
    lock, a socket, or a custom ``__init__`` the parent cannot call
    would otherwise surface as an opaque transport error.  This wrapper
    preserves what the future holder actually needs — the original type
    name, message, and formatted traceback — and is itself always
    picklable (``__reduce__`` rebuilds from those three strings).
    """

    def __init__(
        self, original_type: str, original_message: str, traceback_text: str = ""
    ) -> None:
        super().__init__(f"{original_type}: {original_message}")
        self.original_type = original_type
        self.original_message = original_message
        self.traceback_text = traceback_text

    def __reduce__(self):
        return (
            WorkerError,
            (self.original_type, self.original_message, self.traceback_text),
        )


def _portable_error(exc: BaseException) -> BaseException:
    """A picklable stand-in for ``exc`` (result queues pickle).

    The original instance is kept only when a pickle round-trip
    faithfully reproduces it (same type, same message) — merely *not
    raising* is not enough, since a lossy ``__reduce__`` could silently
    strip the message.  Everything else is wrapped in
    :class:`WorkerError`, preserving type name, message, and traceback.
    """
    try:
        clone = pickle.loads(pickle.dumps(exc))
        if type(clone) is type(exc) and str(clone) == str(exc):
            return exc
    except Exception:
        pass
    tb = "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))
    return WorkerError(type(exc).__name__, str(exc), tb)


def _hydrate(fit_state: dict, attached) -> LACA:
    """Rebuild the parent's fitted model over the attached shared view.

    The TNAM factor travels through shared memory, not the pickled fit
    state: reinserting ``attached.tnam_z`` (float64 already, so
    ``np.asarray`` inside ``from_fit_state`` copies nothing) keeps the
    worker's model zero-copy end to end.
    """
    state = dict(fit_state)
    if attached.tnam_z is not None:
        state["tnam_z"] = attached.tnam_z
    return LACA.from_fit_state(state, attached.graph)


def _worker_main(
    worker_id, spawn, manifest, fit_state, tasks, results, fault_plan=None
) -> None:
    """Pool worker process: attach, hydrate, answer blocks until told to stop.

    Messages in (FIFO — ordering is the epoch barrier):
      ``("block", block_id, seeds, sizes)`` — answer one gathered block;
      ``("reload", generation, manifest, fit_state)`` — re-attach the new
      snapshot, then ack;
      ``("stop",)`` — exit after the queue drained to here.
    Messages out: ``("result", worker_id, block_id, payload, error)`` and
    ``("reload-ack", worker_id, generation, error)``.

    ``spawn`` counts incarnations of this worker slot (0 for the
    original, +1 per respawn) — fault-plan rules match on it to target
    a specific incarnation, since rule counters are per-process state.

    Result payloads are ``(clusters, engine_seconds, metrics_delta)``:
    the worker observes engine introspection into a private registry
    and drains it per block, so its counters ride the existing result
    queue home and merge into the head registry — no extra IPC
    channel, no shared locks.
    """
    attached = attach_snapshot(manifest)
    model = _hydrate(fit_state, attached)
    workspace = model.make_workspace()
    registry = MetricsRegistry("laca")
    engine_metrics = make_engine_metrics(registry)
    blocks_seen = 0
    while True:
        message = tasks.get()
        kind = message[0]
        if kind == "stop":
            break
        if kind == "reload":
            _, generation, new_manifest, new_state = message
            try:
                if fault_plan is not None:
                    # "delay" holds the ack back; "raise" fails the reload.
                    fault_plan.check(
                        "worker.reload",
                        worker_id=worker_id, spawn=spawn, generation=generation,
                    )
                fresh = attach_snapshot(new_manifest)
                model = _hydrate(new_state, fresh)
                workspace = model.make_workspace()
                attached.close()
                attached = fresh
                results.put(("reload-ack", worker_id, generation, None))
            except BaseException as exc:  # noqa: BLE001 — must always ack
                results.put(
                    ("reload-ack", worker_id, generation, _portable_error(exc))
                )
            continue
        _, block_id, seeds, sizes = message
        try:
            if fault_plan is not None:
                # "exit" is a hard kill mid-block (the block is lost and
                # must be retried); "raise" emulates an engine crash.
                fault_plan.check(
                    "worker.block",
                    worker_id=worker_id, spawn=spawn, block_index=blocks_seen,
                )
            answer = answer_block(model, [workspace], seeds, sizes, engine_metrics)
            payload = (*answer, registry.drain())
            results.put(("result", worker_id, block_id, payload, None))
        except BaseException as exc:  # noqa: BLE001 — must always answer
            results.put(
                ("result", worker_id, block_id, None, _portable_error(exc))
            )
        blocks_seen += 1
    attached.close()


def _worker_fit_state(model: LACA) -> dict:
    """Hydration state shipped to workers: no maintenance arrays
    (workers never refresh) and no TNAM factor (it travels through
    shared memory instead of the pickle)."""
    state = model.fit_state(include_maintenance=False)
    state.pop("tnam_z", None)
    return state


def _publish(model: LACA, graph):
    return publish_snapshot(
        graph, tnam_z=model.tnam.z if model.tnam is not None else None
    )


class WorkerPool:
    """The process back-end of a :class:`ClusterService` with ``workers >= 1``.

    Construction publishes the served snapshot and forks
    ``service.workers`` processes — the service builds its pool before
    it starts the dispatcher thread — then starts the collector and the
    supervisor threads.  The dispatcher drives the pool through
    :meth:`dispatch`, :meth:`park_or_fail`, :meth:`set_fallback` and
    :meth:`reload`; the collector hands each result to
    ``service._resolve_block``, which takes the block back with
    :meth:`take`.  The pool reads the service's retry, restart and
    fallback options and reports through its telemetry and trace log.
    """

    def __init__(self, service: ClusterService, graph, fault_plan=None) -> None:
        self.service = service
        self.size = size = service.workers
        self._fault_plan = fault_plan
        self._ctx = ctx = multiprocessing.get_context(START_METHOD)
        self._tasks = [ctx.SimpleQueue() for _ in range(size)]
        self._results = ctx.Queue()
        # Pool state shared between dispatcher, collector, and supervisor.
        self._lock = threading.Lock()
        self._next_block = 0
        self._inflight: dict[int, tuple[int, list[_Request]]] = {}
        self._outstanding = [0] * size
        self._worker_dead = [False] * size
        self._reload_generation = 0
        self._reload_pending: set[int] = set()
        self._reload_errors: list[BaseException] = []
        self._reload_event = threading.Event()
        self._closed = False
        self._spawn_counts = [0] * size
        self._restart_times: list[list[float]] = [[] for _ in range(size)]
        self._respawn_at: list[float | None] = [None] * size
        self._parked: list[list[_Request]] = []
        self._fallback_active = False
        self._collector_stop = threading.Event()
        self._supervisor_stop = threading.Event()
        # The *current* manifest/fit-state pair is what a respawn
        # hydrates from; the epoch barrier updates it under the pool
        # lock, so respawns always join at the serving generation.
        self._shared = _publish(service.model, graph)
        self._current_manifest = self._shared.manifest
        self._current_state = _worker_fit_state(service.model)
        self._procs: list = []
        try:
            for worker_id in range(size):
                self._procs.append(self._spawn(worker_id, 0))
        except BaseException:
            for proc in self._procs:
                proc.terminate()
            self._shared.close()
            raise
        self._collector = threading.Thread(
            target=self._collect_loop,
            name=f"cluster-pool-collector-{service.name}",
            daemon=True,
        )
        self._collector.start()
        self._supervisor = threading.Thread(
            target=self._supervise_loop,
            name=f"cluster-pool-supervisor-{service.name}",
            daemon=True,
        )
        self._supervisor.start()

        registry = service.telemetry.registry
        alive_gauge = registry.gauge(
            "laca_workers_alive", "Live pool worker processes"
        )
        inflight_gauge = registry.gauge(
            "laca_inflight_blocks", "Blocks dispatched but not yet resolved"
        )
        fallback_gauge = registry.gauge(
            "laca_fallback_active",
            "1 while blocks are answered in-process because no pool "
            "worker is alive",
        )

        def _pool_gauges() -> None:
            with self._lock:
                alive_gauge.set(self._worker_dead.count(False))
                inflight_gauge.set(len(self._inflight))
                fallback_gauge.set(1.0 if self._fallback_active else 0.0)

        registry.add_hook(_pool_gauges)

    def _spawn(self, worker_id: int, spawn: int):
        """Start incarnation ``spawn`` of worker slot ``worker_id`` on the
        current manifest."""
        suffix = f"-r{spawn}" if spawn else ""
        proc = self._ctx.Process(
            target=_worker_main,
            args=(
                worker_id,
                spawn,
                self._current_manifest,
                self._current_state,
                self._tasks[worker_id],
                self._results,
                self._fault_plan,
            ),
            name=f"cluster-pool-worker-{worker_id}{suffix}",
            daemon=True,
        )
        proc.start()
        return proc

    # ------------------------------------------------------------------
    # Dispatch: split the gathered block over the workers and move on.
    def dispatch(self, live: list[_Request]) -> bool:
        """Split ``live`` into contiguous shards, at most one per live
        worker, and hand each to one of the least-loaded live workers;
        False when no worker is alive.  The gathered block is recorded
        once, as one coalesced block of ``len(live)`` requests."""
        with self._lock:
            alive = [
                i
                for i in range(self.size)
                if not self._worker_dead[i] and self._procs[i].is_alive()
            ]
            if not alive:
                return False
            alive.sort(key=lambda i: self._outstanding[i])
            # Contiguous shards whose sizes differ by at most one; the
            # larger ones go to the less-loaded workers.
            cuts = contiguous_cuts(0, len(live), min(len(alive), len(live)))
            shards = []
            for worker_id, start, stop in zip(alive, cuts, cuts[1:]):
                shard = live[start:stop]
                block_id = self._next_block
                self._next_block += 1
                self._inflight[block_id] = (worker_id, shard)
                self._outstanding[worker_id] += 1
                shards.append((worker_id, block_id, shard))
        self.set_fallback(False)
        for worker_id, block_id, shard in shards:
            try:
                self._tasks[worker_id].put(
                    (
                        "block",
                        block_id,
                        [int(request.seed) for request in shard],
                        [int(request.size) for request in shard],
                    )
                )
            except BaseException as exc:  # worker pipe broke mid-dispatch
                # The worker is dying (or dead); run the death bookkeeping
                # now rather than waiting for the supervisor's next sweep,
                # and retry every block it still owed, this shard included
                # (none if the supervisor already took them back).
                error = RuntimeError(f"dispatch to pool worker {worker_id} failed")
                error.__cause__ = exc
                for requests in self._mark_worker_dead(worker_id):
                    self._retry_or_fail(requests, error, worker_id)
                self._check_terminal()
        self.service.telemetry.record_coalesced(len(live))
        return True

    def park_or_fail(self, live: list[_Request]) -> None:
        """No live worker took ``live`` and there is no fallback: hold it
        for a scheduled respawn, or fail the service when none is."""
        with self._lock:
            park = not self._closed and any(
                at is not None for at in self._respawn_at
            )
            if park:
                self._parked.append(live)
        if park:
            return
        error = RuntimeError("every pool worker is dead; the service is failed")
        self.service._fail_closed(error)
        self.service._fail_requests(live, error, "worker")

    def set_fallback(self, active: bool) -> None:
        with self._lock:
            if self._fallback_active == active:
                return
            self._fallback_active = active
        if self.service.trace_log is not None:
            self.service.trace_log.record_event("fallback_inprocess", active=active)

    def take(self, worker_id: int, block_id: int) -> list[_Request] | None:
        """Remove an answered block from the in-flight table; None when
        close() or a retry already claimed it."""
        with self._lock:
            entry = self._inflight.pop(block_id, None)
            if entry is None:
                return None
            self._outstanding[worker_id] -= 1
        return entry[1]

    # ------------------------------------------------------------------
    # Collector: resolve futures as workers stream results back.
    def _collect_loop(self) -> None:
        telemetry = self.service.telemetry
        while True:
            try:
                message = self._results.get(timeout=0.25)
            except queue.Empty:
                if self._collector_stop.is_set():
                    return
                continue
            except (OSError, EOFError):
                return  # queue torn down under us during interpreter exit
            except Exception:  # noqa: BLE001 — unpicklable payload
                # The message is consumed and unattributable; its block
                # resolves through the death/retry machinery instead of
                # taking the collector thread down with it.
                telemetry.record_error("collector")
                continue
            kind = message[0]
            if kind == "collector-stop":
                return
            if self._fault_plan is not None and self._fault_plan.check(
                "pool.result", kind=kind, worker_id=message[1]
            ):
                continue  # injected message loss (a torn result pipe)
            try:
                if kind == "reload-ack":
                    self._note_reload_ack(message)
                elif kind == "result":
                    _, worker_id, block_id, payload, error = message
                    self.service._resolve_block(worker_id, block_id, payload, error)
            except BaseException:  # noqa: BLE001 — keep collecting
                # _resolve already failed the block's futures.
                telemetry.record_error("collector")

    def _note_reload_ack(self, message) -> None:
        _, worker_id, generation, error = message
        with self._lock:
            if generation != self._reload_generation:
                return  # stale ack from an abandoned reload
            if error is not None:
                self._reload_errors.append(error)
            self._reload_pending.discard(worker_id)
            if not self._reload_pending:
                self._reload_event.set()

    # ------------------------------------------------------------------
    # Supervisor: detect deaths, retry lost blocks, respawn workers.
    def _supervise_loop(self) -> None:
        while not self._supervisor_stop.wait(SUPERVISE_INTERVAL_S):
            try:
                self._reap_dead_workers()
                self._respawn_due()
            except Exception:  # noqa: BLE001 — supervision must survive
                self.service.telemetry.record_error("supervisor")

    def _mark_worker_dead(self, worker_id: int) -> list[list[_Request]]:
        """Bookkeeping for one observed death (idempotent).

        Flags the slot dead, collects its in-flight request lists (the
        caller retries them), zeroes its load, unblocks a reload
        barrier waiting on its ack, and schedules a respawn if the
        restart budget allows.  Returns the lost request lists.
        """
        with self._lock:
            if self._worker_dead[worker_id]:
                return []
            self._worker_dead[worker_id] = True
            lost_ids = [
                block_id
                for block_id, entry in self._inflight.items()
                if entry[0] == worker_id
            ]
            lost = [self._inflight.pop(block_id)[1] for block_id in lost_ids]
            self._outstanding[worker_id] = 0
            if worker_id in self._reload_pending:
                # A dead worker can never ack; holding the barrier on
                # it would hang every epoch advance behind a crash.
                self._reload_pending.discard(worker_id)
                if not self._reload_pending:
                    self._reload_event.set()
            now = time.monotonic()
            window = [
                at
                for at in self._restart_times[worker_id]
                if now - at < RESTART_WINDOW_S
            ]
            self._restart_times[worker_id] = window
            if len(window) < self.service.restart_budget and not self._closed:
                respawn_in = min(
                    self.service.backoff_base_s * (2 ** len(window)), BACKOFF_MAX_S
                )
                self._respawn_at[worker_id] = now + respawn_in
            else:
                self._respawn_at[worker_id] = None
                respawn_in = None
        if self.service.trace_log is not None:
            self.service.trace_log.record_event(
                "worker_death",
                worker_id=worker_id,
                exit_code=self._procs[worker_id].exitcode,
                lost_blocks=len(lost),
                respawn_in_s=respawn_in,
            )
        return lost

    def _reap_dead_workers(self) -> None:
        """Sweep for dead workers; retry their blocks, schedule respawns."""
        for worker_id in range(self.size):
            with self._lock:
                undetected = (
                    not self._worker_dead[worker_id]
                    and not self._procs[worker_id].is_alive()
                )
            if not undetected:
                continue
            lost = self._mark_worker_dead(worker_id)
            error = RuntimeError(
                f"pool worker {worker_id} died "
                f"(exit code {self._procs[worker_id].exitcode})"
            )
            for requests in lost:
                self._retry_or_fail(requests, error, worker_id)
            self._check_terminal()

    def _retry_or_fail(
        self, requests: list[_Request], cause: BaseException, worker_id: int
    ) -> None:
        """Re-enqueue requests lost to a worker death, within budgets.

        Retries ride the ordinary dispatcher queue, so they are
        re-gathered and re-dispatched exactly like fresh submissions —
        one code path, same answers.  Requests past their
        deadline or out of retries fail here instead.
        """
        service = self.service
        now = time.perf_counter()
        survivors: list[_Request] = []
        for request in requests:
            if request.deadline is not None and now > request.deadline:
                service.telemetry.record_deadline_miss()
                service._drop(
                    request,
                    DeadlineExceeded(
                        f"request (seed={request.seed}) lost its worker and "
                        "its deadline passed before a retry could be "
                        "dispatched"
                    ),
                    "deadline_exceeded",
                    now,
                )
            elif request.retries >= service.max_retries:
                service.telemetry.record_error("worker")
                error = RuntimeError(
                    f"request (seed={request.seed}) lost its pool worker "
                    f"{request.retries + 1} time(s) and is out of retries "
                    f"(max_retries={service.max_retries})"
                )
                error.__cause__ = cause
                service._drop(request, error, "retries_exhausted", now)
            else:
                request.retries += 1
                request.span.retries = request.retries
                survivors.append(request)
        if not survivors:
            return
        service.telemetry.record_block_retry()
        if service.trace_log is not None:
            service.trace_log.record_event(
                "block_retry",
                worker_id=worker_id,
                requests=len(survivors),
            )
        self._requeue(survivors, cause)

    def _requeue(self, requests: list[_Request], cause: BaseException) -> None:
        """Put requests back on the dispatcher queue (close-safe)."""
        service = self.service
        with service._close_lock:
            closed = service._closed
            if not closed:
                for request in requests:
                    request.requeued = True
                    service._queue.put(request)
        if closed:
            error = RuntimeError(
                "service closed before this request could be retried"
            )
            error.__cause__ = cause
            service._fail_requests(requests, error, "closed")

    def _respawn_due(self) -> None:
        """Start respawns whose backoff has elapsed.

        The whole respawn — manifest read, fork, liveness flip — holds
        the pool lock, making it atomic against the epoch barrier's
        manifest swap: a respawn sees either the old generation (and
        then receives the reload like any live worker would have,
        queued FIFO behind nothing) or the new one (already current).
        """
        service = self.service
        now = time.monotonic()
        for worker_id in range(self.size):
            with self._lock:
                at = self._respawn_at[worker_id]
                if (
                    at is None
                    or now < at
                    or self._closed
                    or service._failed is not None
                ):
                    continue
                self._respawn_at[worker_id] = None
                spawn = self._spawn_counts[worker_id] + 1
                try:
                    proc = self._spawn(worker_id, spawn)
                except Exception:  # noqa: BLE001 — fork pressure; back off
                    self._respawn_at[worker_id] = now + BACKOFF_MAX_S
                    continue
                self._procs[worker_id] = proc
                self._worker_dead[worker_id] = False
                self._spawn_counts[worker_id] = spawn
                self._restart_times[worker_id].append(time.monotonic())
                parked, self._parked = self._parked, []
            service.telemetry.record_worker_restart()
            if service.trace_log is not None:
                service.trace_log.record_event(
                    "worker_respawn",
                    worker_id=worker_id,
                    spawn=spawn,
                    epoch=service._epoch,
                    generation=self._reload_generation,
                )
            for requests in parked:
                # Parked blocks flow back through _answer: deadline and
                # epoch checks re-run there before dispatch.
                self._requeue(
                    requests,
                    RuntimeError("no live pool worker when first dispatched"),
                )

    def _check_terminal(self) -> None:
        """Fail the service once recovery is impossible.

        Every worker dead, no respawn scheduled (budget exhausted), and
        no in-process fallback: nothing can ever answer again, so fail
        closed now — including any parked blocks — instead of letting
        futures hang until close().
        """
        if self.service.fallback_inprocess:
            return
        with self._lock:
            recoverable = (
                not all(self._worker_dead)
                or any(at is not None for at in self._respawn_at)
                or self._closed
            )
            if recoverable:
                return
            parked, self._parked = self._parked, []
        error = RuntimeError(
            "every pool worker is dead and the restart budget is "
            "exhausted; the service is failed"
        )
        self.service._fail_closed(error)
        for requests in parked:
            self.service._fail_requests(requests, error, "worker")

    # ------------------------------------------------------------------
    # Epoch barrier: republish, reload every worker, then retire the old
    # segments.  Runs on the dispatcher thread from the service's
    # _refresh(), after the parent model refreshed but before the
    # serving epoch advances.
    def reload(self, head) -> None:
        model = self.service.model
        state = _worker_fit_state(model)
        shared = _publish(model, head)
        previous = None
        try:
            with self._lock:
                live = [i for i in range(self.size) if not self._worker_dead[i]]
                self._reload_generation += 1
                generation = self._reload_generation
                self._reload_pending = set(live)
                self._reload_errors = []
                self._reload_event.clear()
                # Respawns from here on hydrate the *new* snapshot (the
                # respawn path reads these under this same lock).
                previous = (self._current_manifest, self._current_state)
                self._current_manifest = shared.manifest
                self._current_state = state
            if live:
                for worker_id in live:
                    # FIFO: this rides behind every pre-marker block
                    # already on the worker's queue — the epoch barrier.
                    self._tasks[worker_id].put(
                        ("reload", generation, shared.manifest, state)
                    )
                if not self._reload_event.wait(RELOAD_TIMEOUT_S):
                    raise RuntimeError(
                        f"epoch {head.epoch} reload: not every worker acked "
                        f"within {RELOAD_TIMEOUT_S}s"
                    )
                with self._lock:
                    errors = list(self._reload_errors)
                if errors:
                    raise RuntimeError(
                        f"epoch {head.epoch} reload failed in "
                        f"{len(errors)} worker(s)"
                    ) from errors[0]
            else:
                with self._lock:
                    recoverable = self.service.fallback_inprocess or any(
                        at is not None for at in self._respawn_at
                    )
                if not recoverable:
                    raise RuntimeError("no live pool workers to reload")
                # No barrier needed: respawns attach the new manifest
                # (swapped above), and fallback serves from the parent
                # model, which is already refreshed.
        except BaseException:
            with self._lock:
                if previous is not None:
                    self._current_manifest, self._current_state = previous
            shared.close()  # don't leak segments for a failed reload
            raise
        old = self._shared
        self._shared = shared
        # Every live worker acked (and respawns attach the new
        # manifest): old mappings are closed, and unlinked segments
        # stay valid for any mapping that still exists anyway.
        old.close()

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        with self._lock:
            return {
                "workers_alive": self._worker_dead.count(False),
                "inflight_blocks": len(self._inflight),
                "parked_blocks": len(self._parked),
                "fallback_active": self._fallback_active,
            }

    def close(self, timeout: float | None) -> bool:
        """Stop the workers and pool threads after the dispatcher exited;
        fail whatever is still in flight.  Returns whether every process
        and thread exited within ``timeout``."""
        clean = True
        with self._lock:
            first_close = not self._closed
            self._closed = True
            self._respawn_at = [None] * self.size
        self._supervisor_stop.set()
        if first_close:
            for tasks in self._tasks:
                try:
                    tasks.put(("stop",))
                except Exception:
                    pass  # already-broken pipe of a dead worker
        budget = 30.0 if timeout is None else timeout
        deadline = time.monotonic() + budget
        for proc in self._procs:
            proc.join(max(0.0, deadline - time.monotonic()))
        for proc in self._procs:
            if proc.is_alive():
                clean = False
                proc.terminate()
                proc.join(5.0)
        # Workers exited (or were killed) — anything they flushed is in
        # the result queue ahead of this stop marker, so the collector
        # resolves every last future before exiting.
        self._collector_stop.set()
        try:
            self._results.put(("collector-stop",))
        except Exception:
            pass
        for thread in (self._collector, self._supervisor):
            thread.join(max(1.0, deadline - time.monotonic()))
            if thread.is_alive():
                clean = False
        if not self._collector.is_alive():
            # The stop marker started the result queue's feeder thread,
            # which would otherwise live on until the queue is collected.
            self._results.close()
            self._results.join_thread()
        # The supervisor may have re-enqueued retries after the
        # dispatcher consumed the shutdown sentinel; nothing will ever
        # gather them, so fail them now.
        service = self.service
        service._drain_queue(
            RuntimeError("service closed before this request was answered")
        )
        with self._lock:
            leftovers = [requests for _, requests in self._inflight.values()]
            self._inflight.clear()
            parked, self._parked = self._parked, []
        error = RuntimeError(
            "service closed before this request was answered "
            "(its pool worker was terminated)"
        )
        for requests in leftovers + parked:
            service._fail_requests(requests, error, "closed")
        self._shared.close()
        return clean
