"""Micro-batching cluster service: concurrent queries share traversals.

The block diffusion engine (PR 1) answers ``B`` seeds for far less than
``B`` sequential traversals, but only if someone stacks the seeds into a
block.  :class:`ClusterService` is that someone: callers ``submit`` one
query each and get a future; a background dispatcher drains the queue
into blocks of up to ``max_batch`` requests (waiting at most
``max_wait_s`` for stragglers) and answers each block with
:func:`answer_block` — one :meth:`LACA.scores_batch` call, or the
sequential workspace path for a lone request.  :func:`answer_block`
states how the two paths' answers relate.  Answers are remembered in an
LRU result cache consulted before enqueueing.
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
from ..diffusion.base import begin_kernel_tally, end_kernel_tally
from ..graphs.store import GraphDelta, GraphStore
from ..obs.tracing import Span, TraceLog
from .cache import ResultCache, config_digest, query_key
from .telemetry import ServiceTelemetry

__all__ = ["ClusterService", "UpdateTimeout", "answer_block"]

#: Queue sentinel that tells the dispatcher to exit after the current block.
_SHUTDOWN = object()


class UpdateTimeout(TimeoutError):
    """:meth:`ClusterService.apply_update` hit its ``timeout`` first.

    The update is *not* lost and the service is *not* inconsistent: the
    store already advanced, new submissions are keyed at the new epoch
    and queued behind the refresh marker, and the marker still lands in
    dispatch order — the model is refreshed before any of those queued
    requests is answered.  :attr:`pending` resolves to the marker's
    ``(promoted, invalidated)`` cache counts once it does (or raises if
    the refresh failed, at which point the service fails closed).
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
    future: Future = field(default_factory=Future)
    enqueued_at: float = field(default_factory=time.perf_counter)
    #: Absolute ``perf_counter`` deadline, or None for "no deadline".
    #: Stamped by admission control (:class:`PoolClusterService`);
    #: the in-process service never sets one.
    deadline: float | None = None
    #: Per-request trace span (stage timestamps + trace id); created at
    #: submission, resolved alongside the future.
    span: Span | None = None
    #: Graph epoch the request was keyed at.  A retry that crossed an
    #: epoch advance must not be recomputed — its cache key names the
    #: old snapshot — so the dispatcher fails it instead.
    epoch: int | None = None
    #: How many times this request was re-enqueued after losing its
    #: worker (the pool's idempotent-retry path).
    retries: int = 0
    #: True once the request went back through the dispatcher queue
    #: (retry or parked-block flush).  Only requeued requests get the
    #: strict epoch check — a fresh submission is positioned correctly
    #: relative to update markers by construction.
    requeued: bool = False


@dataclass
class _Update:
    """A graph-epoch advance queued behind the in-flight query blocks.

    The dispatcher refreshes the model and reconciles the cache when it
    reaches this marker; the future resolves to the cache's
    ``(promoted, invalidated)`` counts once serving is on the new epoch.
    """

    epoch: int
    touched: np.ndarray | None
    future: Future = field(default_factory=Future)


def _result_support(result) -> np.ndarray:
    """Sorted union of every node the two diffusions of one query touched.

    This is the invalidation footprint the cache stores with the answer:
    a later delta whose touched set is disjoint from it cannot have
    influenced the query (no touched node's adjacency row, degree, or
    attribute row was ever read), so the cached cluster stays exact.
    Copies out of any workspace views before they are recycled.
    """
    parts = []
    for diffusion in (result.rwr, result.bdd):
        if diffusion.touched is not None:
            parts.append(diffusion.touched)
        else:
            parts.append(np.flatnonzero(diffusion.q))
            parts.append(np.flatnonzero(diffusion.residual))
    return np.unique(np.concatenate(parts))


def _batch_support(result, b: int) -> np.ndarray:
    """Per-column touched-node union for one query of a batched block.

    Final ``q``/``residual`` non-zeros cover every touched node: mass is
    non-negative (no cancellation to exactly 0.0) and any processed
    residual deposits ``α·r > 0`` into ``q``.
    """
    parts = [
        np.flatnonzero(result.rwr.q[:, b]),
        np.flatnonzero(result.rwr.residual[:, b]),
    ]
    if result.bdd is not None:
        parts.append(np.flatnonzero(result.bdd.q[:, b]))
        parts.append(np.flatnonzero(result.bdd.residual[:, b]))
    return np.unique(np.concatenate(parts))


def answer_block(model: LACA, workspace, seeds, sizes, metrics):
    """Answer one block of queries: the one engine call of both front-ends.

    A lone seed takes the sequential workspace path (:meth:`LACA.scores`,
    no length-``n`` allocations in steady state); more seeds share one
    :meth:`LACA.scores_batch` block diffusion.  Kernel selections and
    each query's iterations, frontier peak (untracked by the block
    engine), touched nodes and touched volume are observed into
    ``metrics``, a :func:`~repro.serving.telemetry.make_engine_metrics`
    namespace; nothing is observed when an engine raises.  Returns
    ``(clusters, supports, engine_seconds)``, where ``supports[b]`` is
    the sorted touched-node union the result cache stores as query
    ``b``'s invalidation footprint.

    Path contract: column ``b`` of the block path equals sequential
    :meth:`LACA.cluster` for ``seeds[b]`` up to floating-point
    accumulation order — exactly on non-SNAS graphs, while on the SNAS
    path Step 2 sums over the block's union support (see
    :func:`~repro.core.laca.laca_scores_batch`).  The serving tests check
    equal clusters on their graphs, but a top-k near-tie could flip
    membership and make a cached answer depend on the path that computed
    it: the open risk of item 4 in ``ROADMAP.md``.
    """
    start = time.perf_counter()
    begin_kernel_tally()
    try:
        if len(seeds) == 1:
            result = model.scores(seeds[0], workspace=workspace)
            cluster = top_k_cluster(
                result.scores, sizes[0], seeds[0], support=result.scores_support
            )
            clusters = [cluster]
            supports = [_result_support(result)]
            iteration_counts = [result.rwr.iterations + result.bdd.iterations]
            frontier_peaks = [max(result.rwr.frontier_peak, result.bdd.frontier_peak)]
        else:
            result = model.scores_batch(seeds)
            clusters = [result.cluster(b, size) for b, size in enumerate(sizes)]
            supports = [_batch_support(result, b) for b in range(len(seeds))]
            bdd = result.bdd
            iteration_counts = [
                int(result.rwr.column_iterations[b])
                + (int(bdd.column_iterations[b]) if bdd is not None else 0)
                for b in range(len(seeds))
            ]
            frontier_peaks = [0] * len(seeds)
    finally:
        tally = end_kernel_tally()
    engine_seconds = time.perf_counter() - start
    for kind, count in tally.items():
        metrics.kernel_selections.labels(kind).inc(count)
    degrees = model._require_fit().degrees
    for support, iterations, frontier_peak in zip(
        supports, iteration_counts, frontier_peaks
    ):
        metrics.query_iterations.observe(iterations)
        if frontier_peak:
            metrics.frontier_peak.observe(frontier_peak)
        metrics.touched_nodes.observe(support.size)
        metrics.touched_volume.observe(float(degrees[support].sum()))
    return clusters, supports, engine_seconds


class ClusterService:
    """Thread-safe serving front-end over one fitted :class:`LACA` model.

    Parameters
    ----------
    model:
        A fitted LACA instance (fresh :meth:`~LACA.fit` or
        :func:`~repro.serving.persistence.load_model`).
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

    Use as a context manager, or call :meth:`close` when done.
    """

    def __init__(
        self,
        model: LACA,
        *,
        name: str | None = None,
        max_batch: int = 64,
        max_wait_s: float = 0.002,
        cache_size: int = 1024,
        store: GraphStore | None = None,
        trace_log: TraceLog | None = None,
    ) -> None:
        graph = model._require_fit()
        if max_batch < 1:
            raise ValueError(f"max_batch must be positive, got {max_batch}")
        if max_wait_s < 0.0:
            raise ValueError(f"max_wait_s must be >= 0, got {max_wait_s}")
        if store is not None and store.head is not graph:
            model.refresh(store)
            graph = model._require_fit()
        self.model = model
        self.name = name if name is not None else graph.name
        self.max_batch = int(max_batch)
        self.max_wait_s = float(max_wait_s)
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
        self._store = store
        self._epoch = graph.epoch
        self._update_lock = threading.Lock()
        #: Set when an epoch refresh failed mid-way: the service's epoch
        #: may then be ahead of the model's snapshot, so serving anything
        #: further would cache stale answers under fresh keys.  The
        #: service fails closed instead.
        self._failed: BaseException | None = None
        self._n = graph.n
        # Owned by the dispatcher thread only: preallocated diffusion
        # buffers so steady-state single-query blocks allocate nothing
        # of length n (PR 3's zero-allocation hot path).
        self._workspace = model.make_workspace()
        self._queue: queue.SimpleQueue = queue.SimpleQueue()
        self._closed = False
        self._close_lock = threading.Lock()
        # close() idempotency: the first clean close's result is
        # memoized and later calls return it without re-joining threads.
        self._closer_lock = threading.Lock()
        self._close_result: bool | None = None
        self._start_backend(graph)
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop,
            name=f"cluster-service-{self.name}",
            daemon=True,
        )
        self._dispatcher.start()

    def _start_backend(self, graph) -> None:
        """Construction hook, run with the fitted (store-refreshed) graph
        before any service thread starts.  The in-process service needs
        nothing here; :class:`~repro.serving.pool.PoolClusterService`
        publishes the snapshot and forks its workers (forking after
        threads exist is the classic multiprocessing deadlock)."""

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
            request = _Request(seed=seed, size=size, key=key, epoch=self._epoch)
            span = Span(seed=seed, size=size)
            span.path = "engine"
            span.mark("admitted", request.enqueued_at)
            span.mark("enqueued", request.enqueued_at)
            request.span = span
            request.future.trace_id = span.trace_id
            self._admit(request)
            self._queue.put(request)
        return request.future

    def _admit(self, request: _Request) -> None:
        """Admission-control hook, called under the close lock just
        before ``request`` is enqueued.  The in-process service admits
        everything; :class:`~repro.serving.pool.PoolClusterService`
        overrides this to bound queue depth (load-shedding with a typed
        rejection) and stamp per-request deadlines."""

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
        the refreshed model under the new epoch.  Cached answers from
        the previous epoch are reconciled eagerly — entries whose
        recorded support is disjoint from the delta's touched nodes are
        carried over (still bitwise exact), the rest are invalidated.

        Updates are serialized; blocks until the refresh has landed (at
        most ``timeout`` seconds).  Must not be called from a future
        callback — it would deadlock the dispatcher against itself.
        Returns a summary dict (new epoch/n/m, latency, cache counts).

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
            epoch_before = store.epoch
            start = time.perf_counter()
            head = store.apply(delta)
            if store.wal is not None:
                self.telemetry.record_wal_append()
            update = _Update(
                epoch=head.epoch, touched=store.touched_since(epoch_before)
            )
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
                landed_promoted, landed_invalidated = marker.result()
                self.telemetry.record_update(
                    time.perf_counter() - start,
                    landed_invalidated,
                    landed_promoted,
                )

            update.future.add_done_callback(_record)
            try:
                promoted, invalidated = update.future.result(timeout)
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
                "entries_promoted": promoted,
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
        """Stop accepting queries, answer what is queued, join the thread.

        Returns ``True`` when the dispatcher exited within ``timeout``.
        When it did not (a slow block, or a wedged worker downstream),
        every future still sitting in the queue is failed with a
        ``RuntimeError`` instead of being left to hang forever, and
        ``False`` is returned — the caller knows the join was
        incomplete rather than silently assuming a clean shutdown.

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
            result = self._do_close(timeout)
            if result:
                self._close_result = True
            return result

    def _do_close(self, timeout: float | None) -> bool:
        """The actual teardown, serialized by ``close()``: join the
        dispatcher and fail whatever would otherwise hang.  Subclasses
        extend this (never ``close`` itself) so idempotency memoization
        stays in one place."""
        self._dispatcher.join(timeout)
        if self._dispatcher.is_alive():
            self._drain_queue(
                RuntimeError(
                    "service closed before this request was answered "
                    "(dispatcher did not finish within the close timeout)"
                )
            )
            return False
        return True

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
        with self._close_lock:
            if self._failed is None:
                self._failed = exc
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
        """Land a queued epoch advance: refresh model, reconcile cache.

        The model refreshes to the store's *current* head, which with a
        shared store may already be past this marker's epoch (another
        consumer applied further deltas).  Reconciliation is therefore
        computed against what actually happened — everything touched
        since the model's previous epoch — and the serving epoch follows
        the model, so a cached answer's epoch stamp always names the
        snapshot it was computed on.  On any failure the service fails
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
            previous = self.model._require_fit().epoch
            self.model.refresh(self._store)
            head = self.model._require_fit()
            self._workspace = self.model.make_workspace()
            self._propagate_refresh(head)
            promoted = invalidated = 0
            # Epoch bump and cache reconciliation land under one hold of
            # the close lock so stats() never observes the new epoch
            # paired with the old epoch's cache (lock order is always
            # _close_lock -> cache._lock, matching submit/stats).
            with self._close_lock:
                if head.epoch > self._epoch:
                    self._epoch = head.epoch
                    self._n = head.n
                if self.cache is not None:
                    touched = update.touched
                    if head.epoch != update.epoch:
                        touched = self._store.touched_since(previous)
                    promoted, invalidated = self.cache.advance_epoch(
                        head.epoch, touched, expected_epoch=previous
                    )
        except Exception as exc:
            with self._close_lock:
                self._failed = exc
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
                entries_promoted=promoted,
                entries_invalidated=invalidated,
            )
        if update.future.set_running_or_notify_cancel():
            update.future.set_result((promoted, invalidated))

    def _propagate_refresh(self, head) -> None:
        """Post-refresh hook, run on the dispatcher thread with the
        refreshed model in hand but *before* the epoch advances.  The
        in-process service needs nothing here;
        :class:`~repro.serving.pool.PoolClusterService` overrides it to
        republish shared-memory segments and barrier its workers onto
        the new snapshot."""

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

    def _answer(self, block: list[_Request]) -> None:
        """Answer the block on this thread (see :func:`answer_block`)."""
        if not self._fail_if_failed(block):
            self._answer_block(block)

    def _answer_block(self, block: list[_Request]) -> None:
        start = time.perf_counter()
        for request in block:
            if request.span is not None:
                request.span.mark("dispatched", start)
        seeds = [request.seed for request in block]
        sizes = [request.size for request in block]
        try:
            answer = answer_block(
                self.model, self._workspace, seeds, sizes, self.telemetry.engine_metrics
            )
        except Exception as exc:  # surface engine failures per-request
            self._resolve(block, None, exc)
        else:
            self._resolve(block, (*answer, None))

    def _resolve(
        self, block: list[_Request], payload, error=None, worker_id=None
    ) -> None:
        """Cache, trace and answer one computed block (both front-ends).

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
            clusters, supports, engine_seconds, metrics_delta = payload
            self.telemetry.merge_engine_delta(metrics_delta)
            self.telemetry.record_batch(len(block), engine_seconds, worker_id)
            now = time.perf_counter()
            for request, cluster, support in zip(block, clusters, supports):
                if self.cache is not None:
                    cluster = self.cache.put(request.key, cluster, support)
                else:
                    cluster.setflags(write=False)
                # A caller may have cancelled while queued; resolving a
                # cancelled future raises and would kill this thread.
                if not request.future.set_running_or_notify_cancel():
                    continue  # answer stays in the cache for the next asker
                span = request.span
                if span is not None:
                    span.worker_id = worker_id
                    span.engine_s = engine_seconds
                    span.batch_size = len(block)
                    span.mark("resolved", now)
                    self.telemetry.record_span(span)
                    if self.trace_log is not None:
                        self.trace_log.record_span(span)
                else:
                    self.telemetry.record_latency(now - request.enqueued_at)
                request.future.set_result(cluster)
        except BaseException as exc:  # noqa: BLE001 — liveness guard
            failure = RuntimeError("serving crashed while resolving this block")
            failure.__cause__ = exc
            self._fail_requests(block, failure)
            raise
