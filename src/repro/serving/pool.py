"""Multi-process serving: the worker pool every ``ClusterService`` owns.

The pool has ``workers`` processes.  While none is alive (always in a
pool of size 0, which starts no process and no pool thread and
publishes nothing) :class:`~repro.serving.service.ClusterService`
answers each block on its dispatcher thread.  Live workers spread each
gathered block over processes instead:

- the head snapshot's CSR arrays and TNAM factor (what a worker reads,
  not the attribute rows) are published **once** per epoch into
  :mod:`multiprocessing.shared_memory` segments
  (:func:`~repro.graphs.shm.publish_snapshot`); each worker attaches a
  zero-copy :class:`~repro.graphs.graph.AttributedGraph` view and
  hydrates a :class:`~repro.core.pipeline.LACA` from the parent's fit
  state (:meth:`LACA.from_fit_state`, no refitting);
- the dispatcher splits each block into contiguous shards, at most one
  per live worker, assigns each to one of the least-loaded workers and
  moves on; the pool thread resolves futures as shards stream back;
- a worker answers its shard on one thread with the same
  :func:`~repro.serving.service.answer_block` the dispatcher runs, over
  the same arrays, so a query gets the same answer bitwise whichever
  shard, worker or path computed it.

Every shard is an ordinary in-flight block with its own id.  Each worker
owns one pipe (``block``, ``reload`` and ``stop`` in; ``result`` and
``reload-ack`` out), so a worker killed mid-write tears only its own.
One pool thread waits on every live worker's pipe and sentinel.

A cluster query is a pure function of ``(snapshot, seed, size)``, so
recomputing a lost block *is* the answer:

- **Death & respawn** — on a worker's death (its sentinel fired, or its
  pipe broke or carried an unreadable message, and then it is killed)
  the pool thread resolves what the worker already sent, then respawns
  it with capped exponential backoff under a restart budget per sliding
  window, on the manifest *at the current generation* (read under the
  lock the epoch barrier swaps it under).
- **Idempotent block retry** — blocks in flight on a dead worker go back
  on the dispatcher queue (up to ``max_retries`` per request, deadlines
  still honored).  Workers killed together are all marked dead before
  any of their blocks is retried, so a lost request costs one retry.  A
  retry that crossed an epoch advance fails instead: its cache key names
  the old snapshot.
- **In-process answering** — a block that finds no live worker is
  answered by the dispatcher itself (``fallback_active`` is set) until
  a respawn lands.  The parent's model is refreshed before every epoch
  barrier, so it can always answer.

Epoch advances add a barrier to the dispatch-queue marker:
:meth:`WorkerPool.reload` publishes the refreshed snapshot and writes a
``reload`` message into every live worker's pipe behind every shard
gathered before the marker (FIFO order *is* the barrier), then waits for
all acks.  The set it replaced becomes the *spare*, which the next
reload rewrites in place (about 10× cheaper than faulting in fresh
pages; a segment its array outgrew is replaced).  That is safe: when
epoch e+1 is published into epoch e−1's set, every live worker has
acked epoch e and dropped its e−1 mappings, and respawns attach only the
current set.  So at most two sets exist; ``close()`` unlinks both, and a
failed reload unlinks the set it wrote.  A pool publishes only while a
worker is alive or due to respawn: a reload that finds neither (a pool
of size 0, or dead workers with the restart budget spent, which only a
live worker's death could change) unlinks both sets instead.  A worker
that dies mid-barrier leaves the pending-ack set; one that fails to
reload fails the service closed.  A worker whose parent dies without
``close()`` exits by itself (it watches the parent's sentinel).
"""

from __future__ import annotations

import contextlib
import multiprocessing
import multiprocessing.connection
import os
import pickle
import signal
import threading
import time
import traceback

# ``top_k_cluster`` is not called here; it stays importable under this
# module's name because perfbench/layers.py wraps it at this name.
from ..core.laca import top_k_cluster  # noqa: F401
from ..core.pipeline import LACA
from ..graphs.shm import attach_snapshot, publish_snapshot
from ..obs.metrics import MetricsRegistry
from ..parallel import contiguous_cuts
from .service import ClusterService, DeadlineExceeded, _Request, answer_block
from .telemetry import make_engine_metrics

__all__ = ["WorkerError", "WorkerPool"]

#: Multiprocessing start method: ``fork`` where available (Linux —
#: instant start), else ``spawn``.  Workers fork before the service
#: starts its dispatcher thread; respawns fork from a threaded parent,
#: which is safe for these workers because they touch only their own
#: state, the shared segments, and their pipes.
START_METHOD = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
#: Sliding window over which one worker slot's respawns count against
#: ``restart_budget``.
RESTART_WINDOW_S = 60.0
#: Cap of the respawn backoff ``backoff_base_s * 2**k``.
BACKOFF_MAX_S = 5.0
#: How long an epoch advance waits for every worker to ack its reload
#: before failing the service closed.
RELOAD_TIMEOUT_S = 60.0
#: How long the pool thread, once it sees a worker die, waits for the
#: other live workers' sentinels before it retries any lost block (their
#: results wait meanwhile).  A SIGKILLed process is seen dead only once
#: the kernel has torn it down, so workers killed together are seen dead
#: milliseconds apart.
DEATH_GRACE_S = 0.05

#: The multi-process front-end's former name, kept for existing callers.
PoolClusterService = ClusterService


class WorkerError(RuntimeError):
    """Portable stand-in for a worker exception that cannot pickle.

    Pipes pickle everything they carry; an exception class holding a
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
    """A picklable stand-in for ``exc`` (result messages pickle).

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


def _exit_with_parent() -> None:
    """End this worker process as soon as its parent process is gone.

    A parent killed without ``close()`` never sends ``("stop",)``, and
    its end of the worker's pipe never reports EOF while a sibling
    worker (forked later, so holding a copy of that end) lives: a worker
    blocked in ``conn.recv()`` would outlive it forever.  A daemon
    thread waits on the parent's sentinel, which becomes ready when the
    parent exits.
    """
    parent = multiprocessing.parent_process()
    if parent is None:
        return

    def watch() -> None:
        multiprocessing.connection.wait([parent.sentinel])
        os._exit(1)

    threading.Thread(target=watch, name="cluster-pool-parent-watch", daemon=True).start()


def _worker_main(worker_id, spawn, manifest, fit_state, conn, fault_plan=None) -> None:
    """Pool worker process: attach, hydrate, answer blocks until told to stop.

    ``conn`` is this worker's end of its own pipe.  Messages in (FIFO —
    ordering is the epoch barrier):
      ``("block", block_id, seeds, sizes)`` — answer one gathered block;
      ``("reload", generation, manifest, fit_state)`` — re-attach the new
      snapshot, then ack;
      ``("stop",)`` — exit after the pipe drained to here.
    Messages out: ``("result", block_id, payload, error)`` and
    ``("reload-ack", generation, error)``; an answer sent before the
    worker dies is in the pipe, so it still reaches the parent.

    ``spawn`` counts incarnations of this worker slot (0 for the
    original, +1 per respawn) — fault-plan rules match on it to target
    a specific incarnation, since rule counters are per-process state.

    Result payloads are ``(clusters, engine_seconds, metrics_delta)``:
    the worker observes engine introspection into a private registry
    and drains it per block, so its counters ride home with the result
    and merge into the head registry — no extra IPC channel, no shared
    locks.
    """
    # A forked worker inherits the serving CLI's SIGTERM handler; a
    # worker keeps the default action and dies on SIGTERM.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    _exit_with_parent()
    attached = attach_snapshot(manifest)
    model = _hydrate(fit_state, attached)
    registry = MetricsRegistry("laca")
    engine_metrics = make_engine_metrics(registry)
    blocks_seen = 0
    while True:
        message = conn.recv()
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
                attached.close()
                attached = fresh
                conn.send(("reload-ack", generation, None))
            except BaseException as exc:  # noqa: BLE001 — must always ack
                conn.send(("reload-ack", generation, _portable_error(exc)))
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
            answer = answer_block(model, 1, seeds, sizes, engine_metrics)
            conn.send(("result", block_id, (*answer, registry.drain()), None))
        except BaseException as exc:  # noqa: BLE001 — must always answer
            conn.send(("result", block_id, None, _portable_error(exc)))
        blocks_seen += 1
    attached.close()


def _worker_fit_state(model: LACA) -> dict:
    """Hydration state shipped to workers, without the TNAM factor (it
    travels through shared memory instead of the pickle)."""
    state = model.fit_state()
    state.pop("tnam_z", None)
    return state


def _publish(model: LACA, graph, spare=None):
    return publish_snapshot(
        graph, tnam_z=model.tnam.z if model.tnam is not None else None, spare=spare
    )


class WorkerPool:
    """The process back-end of every :class:`ClusterService`:
    ``service.workers`` worker processes, possibly none.

    Construction publishes the served snapshot and forks
    ``service.workers`` processes, each with its own pipe — the service
    builds its pool before it starts the dispatcher thread — then starts
    the one pool thread; a pool of size 0 does none of this.  The
    dispatcher drives the pool through :meth:`dispatch` (False when no
    worker is alive: the dispatcher then answers the block itself) and
    :meth:`reload`; the pool thread hands
    each result to ``service._resolve_block``, which takes the block
    back with :meth:`take`, and handles worker deaths and respawns.  The
    pool reads the service's retry and restart options and reports
    through its telemetry and trace log.
    """

    def __init__(self, service: ClusterService, graph, fault_plan=None) -> None:
        self.service = service
        self.size = size = service.workers
        self._fault_plan = fault_plan
        self._ctx = multiprocessing.get_context(START_METHOD)
        # Pool state shared between the dispatcher and the pool thread.
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
        self._fallback_active = False
        # One writer at a time per worker pipe: the dispatcher's blocks
        # and reloads and close()'s stop never interleave their bytes.
        self._send_locks = [threading.Lock() for _ in range(size)]
        # close() writes one message here to end the pool thread's wait.
        self._wakeup, self._wake = self._ctx.Pipe(duplex=False)
        # The *current* segment set and fit state are what a respawn
        # hydrates from; the epoch barrier swaps them under the pool
        # lock, so respawns always join at the serving generation.  The
        # spare is the set the barrier retired last (see reload()).
        self._shared = self._spare = self._current_state = None
        self._procs: list = []
        self._conns: list = []
        self._thread = threading.Thread(
            target=self._run, name=f"cluster-pool-{service.name}", daemon=True
        )
        if size:
            self._shared = _publish(service.model, graph)
            self._current_state = _worker_fit_state(service.model)
            try:
                for worker_id in range(size):
                    proc, conn = self._spawn(worker_id, 0)
                    self._procs.append(proc)
                    self._conns.append(conn)
            except BaseException:
                for proc in self._procs:
                    proc.terminate()
                self._shared.close()
                raise
            self._thread.start()

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
        current manifest; returns its process and the parent's end of
        its new pipe."""
        suffix = f"-r{spawn}" if spawn else ""
        conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(worker_id, spawn, self._shared.manifest, self._current_state,
                  child_conn, self._fault_plan),
            name=f"cluster-pool-worker-{worker_id}{suffix}",
            daemon=True,
        )
        try:
            proc.start()
        finally:
            # The worker holds the only other copy of its end, so the
            # parent's end reports EOF once the worker is gone.
            child_conn.close()
        return proc, conn

    def _send(self, worker_id: int, message) -> None:
        """Write ``message`` into a worker's pipe.  A write that fails
        kills the worker: the pool thread then handles its death like
        any other and retries every block it owed."""
        with self._lock:
            proc, conn = self._procs[worker_id], self._conns[worker_id]
        try:
            with self._send_locks[worker_id]:
                conn.send(message)
        except OSError:  # a broken or closed pipe
            proc.kill()  # a no-op once the process is gone

    # ------------------------------------------------------------------
    # Dispatch: split the gathered block over the workers and move on.
    def dispatch(self, live: list[_Request]) -> bool:
        """Split ``live`` into contiguous shards, at most one per live
        worker, and hand each to one of the least-loaded live workers.
        False when no worker is alive: ``fallback_active`` is then set
        (never in a pool of size 0, which lost no worker) until a later
        dispatch finds a respawned worker.  The gathered block is
        recorded once, as one coalesced block of ``len(live)`` requests."""
        with self._lock:
            alive = [i for i in range(self.size) if not self._worker_dead[i]]
            alive.sort(key=lambda i: self._outstanding[i])
            fallback = self.size > 0 and not alive
            fallback_flips = self._fallback_active != fallback
            self._fallback_active = fallback
            shards = []
            if alive:
                # Contiguous shards whose sizes differ by at most one;
                # the larger ones go to the less-loaded workers.
                cuts = contiguous_cuts(0, len(live), min(len(alive), len(live)))
                for worker_id, start, stop in zip(alive, cuts, cuts[1:]):
                    shard = live[start:stop]
                    block_id = self._next_block
                    self._next_block += 1
                    self._inflight[block_id] = (worker_id, shard)
                    self._outstanding[worker_id] += 1
                    shards.append((worker_id, block_id, shard))
        if fallback_flips and self.service.trace_log is not None:
            self.service.trace_log.record_event("fallback_inprocess", active=fallback)
        if not alive:
            return False
        for worker_id, block_id, shard in shards:
            seeds = [int(request.seed) for request in shard]
            sizes = [int(request.size) for request in shard]
            self._send(worker_id, ("block", block_id, seeds, sizes))
        self.service.telemetry.record_coalesced(len(live))
        return True

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
    # The pool thread: results, acks, deaths and respawns, in one wait.
    def _run(self) -> None:
        """Wait on every live worker's pipe and sentinel and on close()'s
        wakeup, timed out at the next due respawn; return once no worker
        is alive and none is due to respawn (after close(), or once
        every worker died with its restart budget spent).  A worker's
        pipe is read before its death is handled, so every answer it
        sent resolves instead of being retried."""
        while True:
            with self._lock:
                live = {
                    i: (self._conns[i], self._procs[i].sentinel)
                    for i in range(self.size)
                    if not self._worker_dead[i]
                }
                due = [at for at in self._respawn_at if at is not None]
                if not live and not due:
                    return
            timeout = max(0.0, min(due) - time.monotonic()) if due else None
            handles = [handle for pair in live.values() for handle in pair]
            ready = multiprocessing.connection.wait([*handles, self._wakeup], timeout)
            if self._wakeup in ready:
                self._wakeup.recv_bytes()  # close() began; see the top
            try:
                died = False
                for worker_id, (conn, sentinel) in live.items():
                    if sentinel in ready:
                        died = True
                    elif conn in ready and not self._receive(worker_id):
                        # A broken pipe is its worker's death.
                        self._procs[worker_id].kill()
                        self._procs[worker_id].join(5.0)
                        died = True
                if died:
                    self._workers_lost(live)
                self._respawn_due()
            except Exception:  # noqa: BLE001 — the pool thread must survive
                self.service.telemetry.record_error("collector")

    def _receive(self, worker_id: int) -> bool:
        """Read and handle one message from ``worker_id``'s pipe; False
        when the pipe broke (EOF, a torn frame, or an unreadable
        message), which counts as that worker's death."""
        try:
            message = self._conns[worker_id].recv()
        except (EOFError, OSError):
            return False
        except Exception:  # noqa: BLE001 — a message that cannot unpickle
            self.service.telemetry.record_error("collector")
            return False
        kind = message[0]
        if self._fault_plan is not None and self._fault_plan.check(
            "pool.result", kind=kind, worker_id=worker_id
        ):
            return True  # injected message loss
        try:
            if kind == "reload-ack":
                self._note_reload_ack(worker_id, *message[1:])
            elif kind == "result":
                self.service._resolve_block(worker_id, *message[1:])
        except Exception:  # noqa: BLE001 — keep receiving
            # _resolve already failed the block's futures.
            self.service.telemetry.record_error("collector")
        return True

    def _note_reload_ack(self, worker_id: int, generation: int, error) -> None:
        with self._lock:
            if generation != self._reload_generation:
                return  # stale ack from an abandoned reload
            if error is not None:
                self._reload_errors.append(error)
            self._reload_pending.discard(worker_id)
            if not self._reload_pending:
                self._reload_event.set()

    def _workers_lost(self, live: dict) -> None:
        """Handle the deaths among ``live``: every worker whose sentinel
        has fired by the time the pool lock is held, checked with a
        zero-timeout wait after up to :data:`DEATH_GRACE_S` for the rest.

        One hold of the pool lock flags them all dead, unblocks a reload
        barrier waiting on their acks and schedules their respawns, so no
        block lost on workers killed together is retried on one of them.
        Then each one's pipe is read to its end (every answer it sent
        resolves instead of being retried) and closed, and every block it
        still owed retried, unless close() stopped it: close() fails what
        it owed.
        """
        sentinels = {sentinel: worker_id for worker_id, (_, sentinel) in live.items()}
        unfired, deadline = list(sentinels), time.monotonic() + DEATH_GRACE_S
        while unfired and (left := deadline - time.monotonic()) > 0:
            fired = multiprocessing.connection.wait(unfired, left)
            unfired = [sentinel for sentinel in unfired if sentinel not in fired]
        with self._lock:
            fired = multiprocessing.connection.wait(list(sentinels), 0)
            dead = sorted(sentinels[sentinel] for sentinel in fired)
            respawn_in = dict.fromkeys(dead)
            now = time.monotonic()
            for worker_id in dead:
                self._worker_dead[worker_id] = True
                window = [
                    at
                    for at in self._restart_times[worker_id]
                    if now - at < RESTART_WINDOW_S
                ]
                self._restart_times[worker_id] = window
                if not self._closed and len(window) < self.service.restart_budget:
                    respawn_in[worker_id] = min(
                        self.service.backoff_base_s * (2 ** len(window)), BACKOFF_MAX_S
                    )
                    self._respawn_at[worker_id] = now + respawn_in[worker_id]
            if self._reload_pending.intersection(dead):
                # A dead worker can never ack; holding the barrier on
                # it would hang every epoch advance behind a crash.
                self._reload_pending.difference_update(dead)
                if not self._reload_pending:
                    self._reload_event.set()
        for worker_id in dead:
            self._procs[worker_id].join(5.0)
            conn = self._conns[worker_id]
            while conn.poll() and self._receive(worker_id):
                pass
            with self._send_locks[worker_id]:
                conn.close()
        with self._lock:
            if self._closed:
                return
            lost: dict[int, list] = {worker_id: [] for worker_id in dead}
            for block_id in [b for b, (w, _) in self._inflight.items() if w in lost]:
                worker_id, requests = self._inflight.pop(block_id)
                lost[worker_id].append(requests)
            for worker_id in dead:
                self._outstanding[worker_id] = 0
        for worker_id, blocks in lost.items():
            exit_code = self._procs[worker_id].exitcode
            if self.service.trace_log is not None:
                self.service.trace_log.record_event(
                    "worker_death",
                    worker_id=worker_id,
                    exit_code=exit_code,
                    lost_blocks=len(blocks),
                    respawn_in_s=respawn_in[worker_id],
                )
            error = RuntimeError(f"pool worker {worker_id} died (exit code {exit_code})")
            for requests in blocks:
                self._retry_or_fail(requests, error, worker_id)

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
        A closed or failed service drops a due respawn instead (the pool
        thread's wait would otherwise spin on it).
        """
        service = self.service
        now = time.monotonic()
        for worker_id in range(self.size):
            with self._lock:
                at = self._respawn_at[worker_id]
                if at is None or now < at:
                    continue
                self._respawn_at[worker_id] = None
                if self._closed or service._failed is not None:
                    continue
                spawn = self._spawn_counts[worker_id] + 1
                try:
                    proc, conn = self._spawn(worker_id, spawn)
                except Exception:  # noqa: BLE001 — fork pressure; back off
                    self._respawn_at[worker_id] = now + BACKOFF_MAX_S
                    continue
                self._procs[worker_id] = proc
                self._conns[worker_id] = conn
                self._worker_dead[worker_id] = False
                self._spawn_counts[worker_id] = spawn
                self._restart_times[worker_id].append(time.monotonic())
            service.telemetry.record_worker_restart()
            if service.trace_log is not None:
                service.trace_log.record_event(
                    "worker_respawn",
                    worker_id=worker_id,
                    spawn=spawn,
                    epoch=service._epoch,
                    generation=self._reload_generation,
                )

    # ------------------------------------------------------------------
    # Epoch barrier: republish into the spare set, reload every worker,
    # then keep the old set as the next spare.  Runs on the dispatcher
    # thread from the service's _refresh(), after the parent model
    # refreshed but before the serving epoch advances.
    def reload(self, head) -> None:
        with self._lock:
            # No worker alive or due to respawn: only a live worker's death
            # schedules one, so no process reads a snapshot ever again.
            if all(self._worker_dead) and self._respawn_at.count(None) == self.size:
                self._drop_snapshots()
                return
        model = self.service.model
        state = _worker_fit_state(model)
        # The spare is the set the previous barrier retired: every live
        # worker acked leaving it, and respawns attach only the current
        # set, so no process reads it.  Never the live self._shared.
        spare, self._spare = self._spare, None
        shared = _publish(model, head, spare)
        with self._lock:
            live = [i for i in range(self.size) if not self._worker_dead[i]]
            self._reload_generation += 1
            generation = self._reload_generation
            self._reload_pending = set(live)
            self._reload_errors = []
            self._reload_event.clear()
            # Respawns from here on hydrate the *new* snapshot (the
            # respawn path reads these under this same lock).
            previous = (self._shared, self._current_state)
            self._shared, self._current_state = shared, state
        try:
            # With no live worker there is no barrier: respawns attach the
            # new set (swapped above), and the dispatcher answers from the
            # parent model, which is already refreshed.
            for worker_id in live:
                # FIFO: this rides behind every pre-marker block already
                # in the worker's pipe — the epoch barrier.
                self._send(worker_id, ("reload", generation, shared.manifest, state))
            if live and not self._reload_event.wait(RELOAD_TIMEOUT_S):
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
        except BaseException:
            with self._lock:
                self._shared, self._current_state = previous
            shared.close()  # don't leak segments for a failed reload
            raise
        # Every live worker acked (and respawns attach the new set): the
        # old set is unread from here on, and the next reload rewrites it.
        self._spare = previous[0]

    def _drop_snapshots(self) -> None:
        """Unlink the current and the spare segment set (idempotent)."""
        for shared in (self._shared, self._spare):
            if shared is not None:
                shared.close()
        self._shared = self._spare = self._current_state = None

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        with self._lock:
            return {
                "workers_alive": self._worker_dead.count(False),
                "inflight_blocks": len(self._inflight),
                "fallback_active": self._fallback_active,
            }

    def close(self, timeout: float | None) -> bool:
        """Stop the workers and the pool thread after the dispatcher
        exited; fail whatever is still in flight.  Returns whether every
        process and the thread exited within ``timeout``."""
        if self._wake.closed:
            return True  # an earlier close() was clean and released all
        with self._lock:
            first_close = not self._closed
            self._closed = True
            self._respawn_at = [None] * self.size
            live = [i for i in range(self.size) if not self._worker_dead[i]]
        if first_close:
            for worker_id in live:
                self._send(worker_id, ("stop",))
            self._wake.send_bytes(b"")
        # The pool thread reads what each worker sent, reaps it when its
        # sentinel fires, and returns once every worker is gone.
        if self._thread.is_alive():  # a pool of size 0 never started it
            self._thread.join(30.0 if timeout is None else timeout)
        clean = not self._thread.is_alive()
        if not clean:
            with self._lock:
                live = [i for i in range(self.size) if not self._worker_dead[i]]
            for worker_id in live:
                self._procs[worker_id].terminate()
            self._thread.join(5.0)
        with self._lock:
            leftovers = [requests for _, requests in self._inflight.values()]
            self._inflight.clear()
        error = RuntimeError(
            "service closed before this request was answered "
            "(its pool worker was terminated)"
        )
        for requests in leftovers:
            self.service._fail_requests(requests, error, "closed")
        self._drop_snapshots()
        if not self._thread.is_alive():
            # Nothing reads the pipes or the process handles any more.
            for conn in (*self._conns, self._wakeup, self._wake):
                conn.close()
            for proc in self._procs:
                with contextlib.suppress(ValueError):  # a straggler still runs
                    proc.close()
        return clean
