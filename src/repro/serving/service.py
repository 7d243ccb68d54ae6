"""Micro-batching cluster service: concurrent queries share one dispatch.

Callers ``submit`` one query each and get a future; a background
dispatcher drains the queue into blocks of up to ``max_batch`` requests
(waiting at most ``max_wait_s`` for stragglers) and answers each block
with :func:`answer_block`.  That function routes the block by the scatter
kernels the engines themselves pick: while the queries stay local
(Theorem IV.1: cost tied to the touched volume, not to ``n``) every seed
is answered on the sequential path; once the block's queries
saturate the graph (most scatters go graph-wide), the remaining seeds
go to :meth:`LACA.scores_batch`, one contiguous chunk per routing
thread, whose block diffusion (the one entry point
:func:`~repro.diffusion.batch.batch_diffuse`) returns one result per
seed.  Either way each answer is bitwise
:meth:`LACA.cluster` (see :func:`answer_block`).  Answers are remembered
in an LRU result cache consulted before enqueueing.

Every service owns a :class:`~repro.serving.pool.WorkerPool` of
``workers`` processes.  The dispatcher splits each block into shards,
at most one per live worker, and each worker answers its shard on one
thread.  When no worker is alive — always with ``workers=0`` (the
default), a pool of size 0 that starts no process — the dispatcher
answers the block itself.  It may then use every usable CPU: a block of
large queries, local or saturated, runs on that many threads for the
duration of the block (see :func:`answer_block`), and every other block
runs on the dispatcher thread alone.
Admission control (``max_pending`` load-shedding with
:class:`PoolSaturated`, per-request ``deadline_s`` with
:class:`DeadlineExceeded`) runs in :meth:`ClusterService.submit` and
:meth:`ClusterService._answer` for every ``workers`` value.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as _FutureTimeout
from dataclasses import dataclass, field

import numpy as np

from ..core.laca import top_k_cluster
from ..core.pipeline import LACA
from ..core.routing import route_block
from ..diffusion.scatter import sorted_union
from ..graphs.store import GraphDelta, GraphStore
from ..obs.tracing import Span, TraceLog
from ..parallel import usable_cpus
from .cache import ResultCache, config_digest, query_key
from .telemetry import ServiceTelemetry

__all__ = [
    "ClusterService",
    "DeadlineExceeded",
    "PoolSaturated",
    "UpdateTimeout",
    "answer_block",
]

#: Queue sentinel that tells the dispatcher to exit after the current block.
_SHUTDOWN = object()


class PoolSaturated(RuntimeError):
    """Typed load-shed rejection: the service's pending bound is hit.

    Raised by ``submit`` *before* enqueueing, so no future is created —
    the caller backs off (or retries) immediately instead of queueing
    work the service cannot absorb.
    """


class DeadlineExceeded(TimeoutError):
    """An admitted request's deadline passed while it waited in queue.

    The request was never answered (or lost its worker and expired
    before a retry): shedding it keeps a backed-up service from burning
    cycles computing answers nobody is still waiting for.
    """


class UpdateTimeout(TimeoutError):
    """:meth:`ClusterService.apply_update` hit its ``timeout`` first.

    The update is *not* lost and the service is *not* inconsistent: the
    store already advanced, new submissions are keyed at the new epoch
    and queued behind the refresh marker, and the marker still lands in
    dispatch order — the model is refreshed before any of those queued
    requests is answered.  :attr:`pending` resolves to the marker's
    count of dropped cache entries once it does (or raises if the
    refresh failed, at which point the service fails closed).
    """

    def __init__(self, message: str, pending: Future) -> None:
        super().__init__(message)
        self.pending = pending


def _fail_future(future: Future, exc: BaseException) -> None:
    """Resolve ``future`` with ``exc`` if nobody else resolved it yet.

    Tolerates every state a dispatcher crash can leave a future in
    (pending, cancelled, already running, already resolved) — the
    liveness contract is that a submitted future always completes, and
    this helper must never itself take the dispatcher down.
    """
    try:
        if future.cancelled() or future.done():
            return
        if future.set_running_or_notify_cancel():
            future.set_exception(exc)
    except Exception:
        try:
            future.set_exception(exc)
        except Exception:
            pass  # resolved in a race: the caller got *an* answer


@dataclass
class _Request:
    """One pending cluster query and the future that will carry its answer."""

    seed: int
    size: int
    key: tuple
    #: Graph epoch the request was keyed at.  A retry that crossed an
    #: epoch advance must not be recomputed — its cache key names the
    #: old snapshot — so the dispatcher fails it instead.
    epoch: int
    #: Absolute ``perf_counter`` deadline, or None for "no deadline".
    #: Stamped at admission when the service has a ``deadline_s``.
    deadline: float | None
    #: Per-request trace span (stage timestamps + trace id); created at
    #: submission, resolved alongside the future.
    span: Span
    future: Future = field(default_factory=Future)
    #: How many times this request was re-enqueued after losing its
    #: worker (the pool's idempotent-retry path).
    retries: int = 0
    #: True once the request went back through the dispatcher queue
    #: (a retry after its worker died).  Only requeued requests get the
    #: strict epoch check — a fresh submission is positioned correctly
    #: relative to update markers by construction.
    requeued: bool = False


@dataclass
class _Update:
    """A graph-epoch advance queued behind the in-flight query blocks.

    The dispatcher refreshes the model and drops the older epochs' cache
    entries when it reaches this marker; the future resolves to the
    number of entries dropped once serving is on the new epoch, and
    ``refresh_s`` then holds the :meth:`LACA.refresh` time.
    """

    epoch: int
    future: Future = field(default_factory=Future)
    refresh_s: float = 0.0


def _touched(result, degrees: np.ndarray) -> tuple[int, float]:
    """Size and degree sum of every node the two diffusions of one query
    touched.

    When both tracked their frontier, that is the union of their sorted
    ``touched`` sets, in O(touched).  Otherwise a length-``n`` mask is
    built: a diffusion that tracked no frontier (``touched is None``: a
    run that went graph-wide, or a block column) contributes its final
    ``q``/``residual`` non-zeros, which cover every node it touched: mass
    is non-negative, so nothing cancels to exactly 0.0, and any processed
    residual deposits ``α·r > 0`` into ``q``.  Both ways sum the same
    degrees in the same (ascending node) order.
    """
    rwr, bdd = result.rwr, result.bdd
    if rwr.touched is not None and bdd.touched is not None:
        nodes = sorted_union(rwr.touched, bdd.touched)
        return int(nodes.size), float(degrees[nodes].sum())
    mask = np.zeros(result.scores.shape[0], dtype=bool)
    for diffusion in (rwr, bdd):
        if diffusion.touched is not None:
            mask[diffusion.touched] = True
        else:
            mask |= diffusion.q != 0.0
            mask |= diffusion.residual != 0.0
    return int(mask.sum()), float(degrees[mask].sum())


def answer_block(model: LACA, threads, seeds, sizes, metrics):
    """Answer one block of queries: the one engine call of every back-end.

    The block is routed by :func:`~repro.core.routing.route_block`, the
    rule :meth:`LACA.cluster_block` applies too: the first seed runs
    alone on the sequential path (:meth:`LACA.scores`).  When its
    scatters are large, the rest fans out over up to ``threads``
    threads; a saturating remainder is cut into one contiguous chunk
    per routing thread, each answered by one :meth:`LACA.scores_batch`
    block diffusion; anything else stays on the calling thread.
    The dispatcher passes its usable CPU count, a pool worker ``1``.
    Kernel selections and each query's iterations, frontier peak
    (untracked by the block engine), touched nodes and touched volume
    (see :func:`_touched`) are observed into
    ``metrics``, a :func:`~repro.serving.telemetry.make_engine_metrics`
    namespace, on the calling thread; nothing is observed when an engine
    raises on any thread.  Returns ``(clusters, engine_seconds)``.

    Path contract: every answer is bitwise :meth:`LACA.cluster`, on
    whichever path, thread or block it was computed.  Each per-seed
    result of :meth:`LACA.scores_batch` runs Step 2 through the same
    code as :meth:`LACA.scores` and is handed to the same record
    function.
    """

    def record(result, size: int) -> tuple:
        return (
            top_k_cluster(
                result.scores, size, result.seed, support=result.scores_support
            ),
            result.rwr.iterations + result.bdd.iterations,
            max(result.rwr.frontier_peak, result.bdd.frontier_peak),
            *_touched(result, model._require_fit().degrees),
        )

    start = time.perf_counter()
    records, tally = route_block(model, threads, seeds, sizes, record)
    engine_seconds = time.perf_counter() - start
    for kind, count in tally.items():
        metrics.kernel_selections.labels(kind).inc(count)
    clusters = []
    for cluster, iterations, frontier_peak, nodes, volume in records:
        clusters.append(cluster)
        metrics.query_iterations.observe(iterations)
        if frontier_peak:
            metrics.frontier_peak.observe(frontier_peak)
        metrics.touched_nodes.observe(nodes)
        metrics.touched_volume.observe(volume)
    return clusters, engine_seconds


class ClusterService:
    """Thread-safe serving front-end over one fitted :class:`LACA` model.

    Parameters
    ----------
    model:
        A fitted LACA instance (fresh :meth:`~LACA.fit` or
        :func:`~repro.serving.persistence.load_model`).
    workers:
        Size of the service's worker pool: the number of worker
        processes answering over one shared-memory snapshot (see
        :mod:`~repro.serving.pool`).  Each gathered block is split into
        contiguous shards, at most one per live worker, and each shard
        goes to one of the least-loaded workers.  ``0`` is a pool with no
        workers: it starts no process and no pool thread and publishes
        no snapshot, so the dispatcher answers every block in-process;
        besides the dispatcher, only a fanned-out block's helper threads
        run, and none outlives its block.
    name:
        Model identity used in cache keys and stats; defaults to the
        fitted graph's name.
    max_batch:
        Largest block one dispatch answers (occupancy cap).
    max_wait_s:
        How long a dispatched block waits for extra requests beyond its
        first — the latency the service trades for coalescing.  ``0``
        takes only what is already queued.
    cache_size:
        LRU capacity of the result cache; ``0`` disables caching.
    store:
        Optional :class:`~repro.graphs.store.GraphStore` to serve from.
        When given, :meth:`apply_update` advances this store (sharing it
        with other consumers); when omitted, one is created lazily on
        the first update.  A store whose head is ahead of the model
        triggers a :meth:`LACA.refresh` at construction.
    trace_log:
        Optional :class:`~repro.obs.tracing.TraceLog`; resolved request
        spans are sampled into it, and lifecycle events (epoch advances,
        worker deaths) always log.  The service does not own it — the
        caller closes it after :meth:`close`.
    max_pending:
        Admission bound: highest number of admitted-but-unresolved
        requests.  ``submit`` beyond it raises :class:`PoolSaturated`
        (and the shed is counted in telemetry).  ``None`` = unbounded.
    deadline_s:
        Per-request deadline stamped at admission.  A request still
        unanswered when its block is dispatched after the deadline fails
        with :class:`DeadlineExceeded` instead of being computed late.
        ``None`` = no deadlines.
    max_retries:
        How many times one request may be re-enqueued after losing its
        worker mid-flight before it fails.  ``0`` fails a worker death's
        in-flight requests outright.
    restart_budget:
        How many respawns one worker slot gets per
        :data:`~repro.serving.pool.RESTART_WINDOW_S`.  ``0`` disables
        respawns: dead workers stay dead, and once every worker is gone
        the dispatcher answers every block itself (as with
        ``workers=0``, same answers) and the pool drops its shared-memory
        snapshot at the next update.  The dispatcher answers in-process
        too while every worker waits out its respawn backoff.
    backoff_base_s:
        Respawn pacing: the k-th respawn within a window waits
        ``min(backoff_base_s * 2**k, BACKOFF_MAX_S)``.
    fault_plan:
        Optional :class:`~repro.testing.faults.FaultPlan` threaded into
        every worker (``worker.block`` / ``worker.reload`` sites) and
        the pool thread (``pool.result``) for deterministic chaos tests.

    Use as a context manager, or call :meth:`close` when done.
    """

    def __init__(
        self,
        model: LACA,
        *,
        workers: int = 0,
        name: str | None = None,
        max_batch: int = 64,
        max_wait_s: float = 0.002,
        cache_size: int = 1024,
        store: GraphStore | None = None,
        trace_log: TraceLog | None = None,
        max_pending: int | None = None,
        deadline_s: float | None = None,
        max_retries: int = 2,
        restart_budget: int = 3,
        backoff_base_s: float = 0.25,
        fault_plan=None,
    ) -> None:
        graph = model._require_fit()
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be positive, got {max_batch}")
        if max_wait_s < 0.0:
            raise ValueError(f"max_wait_s must be >= 0, got {max_wait_s}")
        if max_pending is not None and max_pending < 1:
            raise ValueError(f"max_pending must be positive, got {max_pending}")
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError(f"deadline_s must be positive, got {deadline_s}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if restart_budget < 0:
            raise ValueError(f"restart_budget must be >= 0, got {restart_budget}")
        if store is not None and store.head is not graph:
            model.refresh(store)
            graph = model._require_fit()
        self.model = model
        self.workers = int(workers)
        self.name = name if name is not None else graph.name
        self.max_batch = int(max_batch)
        self.max_wait_s = float(max_wait_s)
        self.max_pending = max_pending if max_pending is None else int(max_pending)
        self.deadline_s = deadline_s if deadline_s is None else float(deadline_s)
        self.max_retries = int(max_retries)
        self.restart_budget = int(restart_budget)
        self.backoff_base_s = float(backoff_base_s)
        self.digest = config_digest(model.config)
        self.cache: ResultCache | None = (
            ResultCache(cache_size) if cache_size else None
        )
        self.telemetry = ServiceTelemetry()
        self.trace_log = trace_log
        registry = self.telemetry.registry
        if self.cache is not None:
            self.cache.register_metrics(registry)
        epoch_gauge = registry.gauge(
            "laca_epoch", "Graph epoch new submissions are answered at"
        )
        registry.add_hook(lambda: epoch_gauge.set(self._epoch))
        pending_gauge = registry.gauge(
            "laca_pending_requests", "Admitted-but-unresolved requests"
        )
        registry.add_hook(lambda: pending_gauge.set(self._pending))
        self._store = store
        self._epoch = graph.epoch
        self._update_lock = threading.Lock()
        #: Set when an epoch refresh failed mid-way: the service's epoch
        #: may then be ahead of the model's snapshot, so serving anything
        #: further would cache stale answers under fresh keys.  The
        #: service fails closed instead.
        self._failed: BaseException | None = None
        self._n = graph.n
        # The admission ledger: admitted requests not yet resolved.
        self._pending = 0
        self._pending_lock = threading.Lock()
        # Routing threads of an in-process block (see answer_block).
        self._threads = usable_cpus()
        self._queue: queue.SimpleQueue = queue.SimpleQueue()
        self._closed = False
        self._close_lock = threading.Lock()
        # close() idempotency: the first clean close's result is
        # memoized and later calls return it without re-joining threads.
        self._closer_lock = threading.Lock()
        self._close_result: bool | None = None
        from .pool import WorkerPool  # the pool module imports this one

        # Forks the workers before the dispatcher thread exists (forking
        # after threads exist is the classic deadlock).
        self._pool = WorkerPool(self, graph, fault_plan)
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop,
            name=f"cluster-service-{self.name}",
            daemon=True,
        )
        self._dispatcher.start()

    # ------------------------------------------------------------------
    def submit(self, seed: int, size: int) -> Future:
        """Enqueue one query; the future resolves to its cluster array.

        Cache hits resolve immediately without touching the queue.
        Invalid arguments fail fast here, not in the future.
        """
        seed, size = int(seed), int(size)
        if not 0 <= seed < self._n:
            raise IndexError(f"seed {seed} out of range for n={self._n}")
        if size <= 0:
            raise ValueError(f"cluster size must be positive, got {size}")
        # The closed-check and the enqueue share close()'s lock so no
        # request can slip in behind the shutdown sentinel (it would
        # never be answered and its future would hang forever).  The
        # epoch is read under the same lock: apply_update bumps it
        # atomically with enqueueing its refresh marker, so a request
        # keyed at the new epoch always sits *behind* the marker and is
        # answered by the refreshed model.
        with self._close_lock:
            if self._closed:
                raise RuntimeError("service is closed")
            if self._failed is not None:
                raise RuntimeError(
                    "service is failed: a graph update did not land cleanly "
                    "and the model may be behind the serving epoch"
                ) from self._failed
            key = query_key(self.name, seed, size, self.digest, self._epoch)
            if self.cache is not None:
                cached = self.cache.get(key)
                if cached is not None:
                    self.telemetry.record_cache_hit()
                    future: Future = Future()
                    span = Span(seed=seed, size=size)
                    span.path = "cache"
                    at = time.perf_counter()
                    span.mark("admitted", at)
                    span.mark("resolved", at)
                    # Trace ids ride the future itself so callers (the
                    # serve CLI) can surface them without a side channel.
                    future.trace_id = span.trace_id
                    future.set_result(cached)
                    if self.trace_log is not None:
                        self.trace_log.record_span(span)
                    return future
            with self._pending_lock:
                if self.max_pending is not None and self._pending >= self.max_pending:
                    self.telemetry.record_shed()
                    raise PoolSaturated(
                        f"service is saturated: {self._pending} requests "
                        f"pending (max_pending={self.max_pending}); retry "
                        "after backoff"
                    )
                self._pending += 1
            now = time.perf_counter()
            span = Span(seed=seed, size=size)
            span.path = "engine"
            span.mark("admitted", now)
            span.mark("enqueued", now)
            request = _Request(
                seed=seed,
                size=size,
                key=key,
                epoch=self._epoch,
                deadline=None if self.deadline_s is None else now + self.deadline_s,
                span=span,
            )
            request.future.trace_id = span.trace_id
            request.future.add_done_callback(self._release_admission)
            self._queue.put(request)
        return request.future

    def _release_admission(self, _future) -> None:
        with self._pending_lock:
            self._pending -= 1

    def cluster(self, seed: int, size: int) -> np.ndarray:
        """Blocking convenience: ``submit(seed, size).result()``."""
        return self.submit(seed, size).result()

    def submit_many(self, seeds, size: int) -> list[Future]:
        """Enqueue several queries at once (they coalesce naturally).

        Partial-failure contract: validation is per-seed and fail-fast.
        If a seed mid-list is invalid (out of range, bad size), the
        exception propagates *after* every preceding seed was already
        enqueued — those futures stay live, will be answered normally,
        and are not returned by this call (nothing is rolled back).
        Callers needing all-or-nothing semantics must validate the whole
        list before submitting.
        """
        return [self.submit(seed, size) for seed in seeds]

    # ------------------------------------------------------------------
    def apply_update(
        self, delta: GraphDelta, *, timeout: float | None = None
    ) -> dict:
        """Apply a graph delta and move serving to the new epoch.

        The store advances immediately; the model refresh rides the
        dispatch queue as a marker, so it interleaves safely with
        in-flight query blocks: blocks gathered before the marker are
        answered on the old snapshot (and cached under the old epoch),
        everything submitted after this method returns is answered by
        the refreshed model under the new epoch.  An answer is cached for
        one epoch only: every entry keyed at an older epoch is dropped
        when the refresh lands.

        Updates are serialized; blocks until the refresh has landed (at
        most ``timeout`` seconds).  Must not be called from a future
        callback — it would deadlock the dispatcher against itself.
        Returns a summary dict: new epoch/n/m, ``update_s`` (the whole
        call), ``refresh_s`` (its :meth:`LACA.refresh` share) and
        ``entries_invalidated``, the number of cache entries dropped.

        Timeout semantics: if ``timeout`` expires before the refresh
        marker lands, :class:`UpdateTimeout` is raised but the service
        stays *consistent* — the epoch advance is already queued behind
        the in-flight blocks and still lands in dispatch order, so every
        request keyed at the new epoch is answered by the refreshed
        model, and update telemetry is recorded when the marker
        resolves.  The exception's ``pending`` future lets the caller
        keep waiting; a refresh *failure* (as opposed to slowness) still
        fails the service closed.
        """
        with self._update_lock:
            with self._close_lock:
                if self._closed:
                    raise RuntimeError("service is closed")
                if self._failed is not None:
                    raise RuntimeError(
                        "service is failed: a previous update did not land "
                        "cleanly"
                    ) from self._failed
                if self._store is None:
                    self._store = GraphStore(self.model._require_fit())
            store = self._store
            start = time.perf_counter()
            head = store.apply(delta)
            if store.wal is not None:
                self.telemetry.record_wal_append()
            update = _Update(epoch=head.epoch)
            with self._close_lock:
                if self._closed:
                    raise RuntimeError(
                        "service closed while updating; the store advanced "
                        "but this service never served the new epoch"
                    )
                self._epoch = head.epoch
                self._n = head.n
                self._queue.put(update)

            # Telemetry rides a done-callback so the update is recorded
            # whenever the marker lands — even past a caller timeout.
            def _record(marker: Future) -> None:
                if marker.cancelled() or marker.exception() is not None:
                    return
                self.telemetry.record_update(
                    time.perf_counter() - start, marker.result()
                )

            update.future.add_done_callback(_record)
            try:
                invalidated = update.future.result(timeout)
            except (_FutureTimeout, TimeoutError):
                raise UpdateTimeout(
                    f"graph update to epoch {head.epoch} did not land within "
                    f"{timeout}s; it is still queued behind in-flight blocks "
                    "and every request keyed at the new epoch is answered "
                    "after it (see .pending)",
                    pending=update.future,
                ) from None
            seconds = time.perf_counter() - start
            return {
                "epoch": head.epoch,
                "n": head.n,
                "m": head.m,
                "update_s": round(seconds, 6),
                "refresh_s": round(update.refresh_s, 6),
                "entries_invalidated": invalidated,
            }

    @property
    def store(self) -> GraphStore | None:
        """The graph store backing updates (None until the first one)."""
        return self._store

    @property
    def epoch(self) -> int:
        """The graph epoch new submissions are answered at."""
        return self._epoch

    @property
    def _procs(self) -> list:
        """The pool's worker process handles, one per worker slot (none
        in a pool of size 0); peak-RSS measurement reads their pids."""
        return self._pool._procs

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Telemetry snapshot merged with cache and identity info.

        The epoch and cache numbers are read under the close lock — the
        same lock :meth:`apply_update` and the dispatcher's refresh hold
        while moving epochs — so a snapshot never pairs the *new* epoch
        with the *old* epoch's cache contents (or vice versa).
        """
        snapshot = self.telemetry.snapshot()
        snapshot["model"] = self.name
        snapshot["config_digest"] = self.digest
        snapshot["max_batch"] = self.max_batch
        snapshot["max_wait_s"] = self.max_wait_s
        snapshot["workers"] = self.workers
        snapshot["max_pending"] = self.max_pending
        snapshot["deadline_s"] = self.deadline_s
        snapshot["max_retries"] = self.max_retries
        snapshot["restart_budget"] = self.restart_budget
        with self._pending_lock:
            snapshot["pending"] = self._pending
        snapshot.update(self._pool.stats())
        with self._close_lock:
            snapshot["epoch"] = self._epoch
            snapshot["cache"] = (
                self.cache.stats() if self.cache is not None else None
            )
            snapshot["cache_hit_rate"] = (
                self.cache.hit_rate if self.cache is not None else 0.0
            )
        return snapshot

    # ------------------------------------------------------------------
    def close(self, timeout: float | None = None) -> bool:
        """Stop accepting queries, answer what is queued, join the threads.

        Returns ``True`` when the dispatcher and the pool's worker
        processes and pool thread (if any) exited within ``timeout``.  When
        it did not (a slow block, or a wedged worker), every future
        still queued or in flight is failed with a ``RuntimeError``
        instead of being left to hang forever, and ``False`` is
        returned — the caller knows the join was incomplete rather than
        silently assuming a clean shutdown.

        Idempotent: once a close completed cleanly, every later call
        returns ``True`` immediately instead of racing the thread joins
        (teardown runs exactly once).  After an *unclean* close
        (``False``), a later call re-joins — so a caller can retry with
        a longer timeout — but closes are serialized, never concurrent.
        """
        with self._close_lock:
            if not self._closed:
                self._closed = True
                self._queue.put(_SHUTDOWN)
        with self._closer_lock:
            if self._close_result is not None:
                return self._close_result
            self._dispatcher.join(timeout)
            clean = not self._dispatcher.is_alive()
            clean = self._pool.close(timeout) and clean
            # Whatever is still queued (behind a dispatcher that did not
            # finish in time) is never gathered: fail it.
            self._drain_queue(
                RuntimeError("service closed before this request was answered")
            )
            if clean:
                self._close_result = True
            return clean

    def _drain_queue(self, exc: BaseException) -> None:
        """Fail every future still queued; re-enqueue the sentinel last.

        Used on an incomplete close and after a dispatcher crash: the
        liveness contract is that no submitted future hangs forever.
        The shutdown sentinel, if drained, goes back so a dispatcher
        that eventually unwedges still terminates.
        """
        saw_shutdown = False
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is _SHUTDOWN:
                saw_shutdown = True
                continue
            self.telemetry.record_error("closed")
            _fail_future(item.future, exc)
        if saw_shutdown:
            self._queue.put(_SHUTDOWN)

    def __enter__(self) -> "ClusterService":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _dispatch_loop(self) -> None:
        """Drain the queue forever; one iteration, one block (or marker).

        The loop itself must be crash-proof: an exception escaping an
        iteration used to kill the thread silently, leaving every queued
        and future request's future pending forever (callers block in
        ``.result()`` with no error and no timeout).  Each iteration is
        therefore guarded — on an unexpected escape the service fails
        closed, the victim's future and everything queued behind it are
        failed with the cause, and the loop *continues* so the shutdown
        sentinel is still honored.
        """
        while True:
            first = self._queue.get()
            if first is _SHUTDOWN:
                return
            saw_shutdown = False
            try:
                if isinstance(first, _Update):
                    self._refresh(first)
                    continue
                block, saw_shutdown, pending_update = self._gather_block(first)
                self._answer(block)
                if pending_update is not None:
                    self._refresh(pending_update)
            except BaseException as exc:  # noqa: BLE001 — liveness guard
                self._dispatcher_crashed(exc, first)
            if saw_shutdown:
                # The sentinel was consumed while gathering; honor it
                # even if answering the block crashed.
                return

    def _dispatcher_crashed(
        self, exc: BaseException, first: "_Request | _Update"
    ) -> None:
        """Contain a dispatch-iteration escape: fail closed, hang nothing.

        Marks the service failed (first crash wins), resolves the
        triggering item's future with the cause, then drains the queue
        failing everything behind it — new submissions are already
        rejected at ``submit`` once ``_failed`` is set.
        """
        self._fail_closed(exc)
        error = RuntimeError(
            "dispatcher crashed while serving; the service is failed"
        )
        error.__cause__ = exc
        self.telemetry.record_error("dispatcher")
        _fail_future(first.future, error)
        self._drain_queue(error)

    def _gather_block(
        self, first: _Request
    ) -> tuple[list[_Request], bool, _Update | None]:
        """Coalesce queued requests behind ``first`` into one block.

        Waits until ``max_wait_s`` past the block's start for stragglers,
        stops early at ``max_batch`` occupancy, and reports whether the
        shutdown sentinel was consumed while gathering.  An update
        marker also ends the block — the requests gathered so far were
        submitted before it and must be answered on the pre-update
        snapshot — and is returned for the dispatcher to apply next.
        """
        block = [first]
        deadline = time.perf_counter() + self.max_wait_s
        while len(block) < self.max_batch:
            remaining = deadline - time.perf_counter()
            try:
                if remaining > 0:
                    request = self._queue.get(timeout=remaining)
                else:
                    request = self._queue.get_nowait()
            except queue.Empty:
                break
            if request is _SHUTDOWN:
                return block, True, None
            if isinstance(request, _Update):
                return block, False, request
            block.append(request)
        return block, False, None

    def _refresh(self, update: _Update) -> None:
        """Land a queued epoch advance: refresh model, drop stale answers.

        The model refreshes to the store's *current* head, which with a
        shared store may already be past this marker's epoch (another
        consumer applied further deltas).  The serving epoch follows the
        model, so a cached answer's epoch stamp always names the
        snapshot it was computed on, and the cache keeps only entries
        stamped with the head's epoch.  On any failure the service fails
        closed (see :attr:`_failed`): its epoch may already be ahead of
        the model, and serving through that gap would poison the cache
        with stale answers under fresh keys.
        """
        if self._failed is not None:
            error = RuntimeError(
                "service is failed: an earlier update did not land"
            )
            error.__cause__ = self._failed
            _fail_future(update.future, error)
            return
        try:
            self.model.refresh(self._store)
            update.refresh_s = self.model.refresh_seconds
            head = self.model._require_fit()
            # The epoch barrier: every worker reloads before the serving
            # epoch advances.
            self._pool.reload(head)
            invalidated = 0
            # Epoch bump and cache sweep land under one hold of the close
            # lock so stats() never observes the new epoch paired with
            # the old epoch's cache (lock order is always
            # _close_lock -> cache._lock, matching submit/stats).
            with self._close_lock:
                if head.epoch > self._epoch:
                    self._epoch = head.epoch
                    self._n = head.n
                if self.cache is not None:
                    invalidated = self.cache.advance_epoch(head.epoch)
        except Exception as exc:
            self._fail_closed(exc)
            _fail_future(update.future, exc)
            if self.trace_log is not None:
                self.trace_log.record_event(
                    "epoch_advance_failed",
                    epoch=update.epoch,
                    error=f"{type(exc).__name__}: {exc}",
                )
            return
        if self.trace_log is not None:
            self.trace_log.record_event(
                "epoch_advance",
                epoch=head.epoch,
                n=head.n,
                entries_invalidated=invalidated,
            )
        if update.future.set_running_or_notify_cancel():
            update.future.set_result(invalidated)

    def _fail_requests(
        self, requests: list[_Request], error: BaseException, kind: str | None = None
    ) -> None:
        """Fail every request's future with ``error``, counting each as
        an error of ``kind`` when one is given."""
        for request in requests:
            if kind is not None:
                self.telemetry.record_error(kind)
            _fail_future(request.future, error)

    def _fail_if_failed(self, block: list[_Request]) -> bool:
        """Fail ``block`` when an earlier update failed the service.

        A refresh marker ahead of these requests failed, so the model may
        be behind the epoch their keys carry; failing them beats caching
        stale answers under fresh keys.  Returns whether it did.
        """
        if self._failed is None:
            return False
        error = RuntimeError("service is failed: an update did not land")
        error.__cause__ = self._failed
        self._fail_requests(block, error, "failed")
        return True

    def _fail_closed(self, error: BaseException) -> None:
        """Mark the service failed (the first failure wins): every later
        submission, update and block is refused with ``error`` as cause."""
        with self._close_lock:
            if self._failed is None:
                self._failed = error

    def _drop(
        self, request: _Request, error: BaseException, label: str, now: float
    ) -> None:
        """Fail one request that never reached an engine, tracing its span."""
        if self.trace_log is not None:
            request.span.error = label
            request.span.mark("resolved", now)
            self.trace_log.record_span(request.span)
        _fail_future(request.future, error)

    def _answer(self, block: list[_Request]) -> None:
        """Answer a gathered block: drop what expired or went stale, then
        hand the rest to a pool worker, or answer it on this thread when
        no worker takes it (always so with ``workers=0``)."""
        if self._fail_if_failed(block):
            return
        now = time.perf_counter()
        live: list[_Request] = []
        for request in block:
            if request.deadline is not None and now > request.deadline:
                self.telemetry.record_deadline_miss()
                self._drop(
                    request,
                    DeadlineExceeded(
                        f"request (seed={request.seed}) spent more than "
                        f"{self.deadline_s}s queued and was dropped undispatched"
                    ),
                    "deadline_exceeded",
                    now,
                )
            elif request.requeued and request.epoch != self._epoch:
                # A retried request that crossed an epoch
                # advance: its cache key names the snapshot it was
                # submitted against, and recomputing it on the new one
                # would poison the cache with a cross-epoch answer.
                self.telemetry.record_error("stale_epoch")
                self._drop(
                    request,
                    RuntimeError(
                        f"request (seed={request.seed}) was keyed at epoch "
                        f"{request.epoch} but the service moved to epoch "
                        f"{self._epoch} before it could be dispatched "
                        "(it lost its worker mid-update); resubmit"
                    ),
                    "stale_epoch",
                    now,
                )
            else:
                request.span.mark("dispatched", now)
                live.append(request)
        if not live:
            return
        if not self._pool.dispatch(live):
            self._answer_block(live)

    def _answer_block(self, block: list[_Request]) -> None:
        """Answer ``block`` on this thread (see :func:`answer_block`)."""
        seeds = [request.seed for request in block]
        sizes = [request.size for request in block]
        try:
            answer = answer_block(
                self.model, self._threads, seeds, sizes, self.telemetry.engine_metrics
            )
        except Exception as exc:  # surface engine failures per-request
            self._resolve(block, None, exc)
        else:
            self._resolve(block, (*answer, None))

    def _resolve_block(self, worker_id, block_id, payload, error) -> None:
        """Resolve one block a pool worker answered (pool thread)."""
        block = self._pool.take(worker_id, block_id)
        if block is not None:  # else already failed by close() or retried
            self._resolve(block, payload, error, worker_id)

    def _resolve(
        self, block: list[_Request], payload, error=None, worker_id=None
    ) -> None:
        """Cache, trace and answer one computed block (either back-end).

        ``payload`` is :func:`answer_block`'s result plus a pool worker's
        drained registry delta (None in-process); an engine ``error``
        fails every request instead.  The block's requests are no longer
        queued, so if any step here raises, every future not yet resolved
        fails with the cause before the exception reaches the calling
        thread's guard.
        """
        if error is not None:
            self._fail_requests(block, error, "engine")
            return
        try:
            clusters, engine_seconds, metrics_delta = payload
            self.telemetry.merge_engine_delta(metrics_delta)
            if worker_id is None:
                self.telemetry.record_batch(len(block), engine_seconds)
            else:  # one shard; dispatch recorded the gathered block
                self.telemetry.record_answered(len(block), engine_seconds, worker_id)
            now = time.perf_counter()
            for request, cluster in zip(block, clusters):
                if self.cache is not None:
                    cluster = self.cache.put(request.key, cluster)
                else:
                    cluster.setflags(write=False)
                # A caller may have cancelled while queued; resolving a
                # cancelled future raises and would kill this thread.
                if not request.future.set_running_or_notify_cancel():
                    continue  # answer stays in the cache for the next asker
                span = request.span
                span.worker_id = worker_id
                span.engine_s = engine_seconds
                span.batch_size = len(block)
                span.mark("resolved", now)
                self.telemetry.record_span(span)
                if self.trace_log is not None:
                    self.trace_log.record_span(span)
                request.future.set_result(cluster)
        except BaseException as exc:  # noqa: BLE001 — liveness guard
            failure = RuntimeError("serving crashed while resolving this block")
            failure.__cause__ = exc
            self._fail_requests(block, failure)
            raise
