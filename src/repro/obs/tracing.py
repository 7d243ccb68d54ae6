"""Request tracing: per-request spans and a sampled JSONL event log.

A :class:`Span` records one timestamp per pipeline stage
(admitted → enqueued → dispatched → engine → resolved) using
``time.perf_counter`` so stage durations are exact even when the wall
clock steps.  Stage *durations* are meaningful across processes; raw
``perf_counter`` values are not, so anything that crosses the pool's
IPC boundary ships durations, never absolute marks.

:class:`TraceLog` appends structured JSON lines — sampled request spans
interleaved with unsampled lifecycle events (epoch advances, worker
deaths) — to a file the operator names with ``--trace-log``.  Sampling
is deterministic (an accumulator, not a RNG): ``sample_rate=0.1`` logs
exactly every 10th span, which keeps replay comparisons stable and
needs no randomness on the hot path.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
import uuid

__all__ = ["Span", "TraceLog", "new_trace_id"]

_trace_counter = itertools.count(1)
_trace_prefix = uuid.uuid4().hex[:8]

#: Stage marks in pipeline order; spans must hit them monotonically.
STAGES = ("admitted", "enqueued", "dispatched", "resolved")


def new_trace_id() -> str:
    """Process-unique trace id: random session prefix + sequence number."""
    return f"{_trace_prefix}-{next(_trace_counter):08x}"


class Span:
    """Timestamps for one request's trip through the serving pipeline.

    Marks are ``perf_counter`` values; ``engine_s`` is a duration
    (engine time is measured where the engine runs — possibly another
    process — and attributed back).  A span is touched by several
    threads (submitter, dispatcher, pool thread) but each mark has exactly
    one writer, so plain attribute stores are safe.
    """

    __slots__ = (
        "trace_id",
        "seed",
        "size",
        "path",
        "admitted",
        "enqueued",
        "dispatched",
        "resolved",
        "engine_s",
        "worker_id",
        "batch_size",
        "retries",
        "error",
    )

    def __init__(self, trace_id: str | None = None, seed=None, size=None) -> None:
        self.trace_id = trace_id if trace_id is not None else new_trace_id()
        self.seed = seed
        self.size = size
        self.path: str | None = None
        self.admitted: float | None = None
        self.enqueued: float | None = None
        self.dispatched: float | None = None
        self.resolved: float | None = None
        self.engine_s: float = 0.0
        self.worker_id: int | None = None
        self.batch_size: int | None = None
        self.retries: int = 0
        self.error: str | None = None

    def mark(self, stage: str, at: float | None = None) -> float:
        if stage not in STAGES:
            raise ValueError(f"unknown stage {stage!r}, expected one of {STAGES}")
        at = time.perf_counter() if at is None else float(at)
        setattr(self, stage, at)
        return at

    # -- derived stage durations (None until both endpoints exist) ------
    @property
    def queue_wait_s(self) -> float | None:
        if self.enqueued is None or self.dispatched is None:
            return None
        return max(self.dispatched - self.enqueued, 0.0)

    @property
    def collect_s(self) -> float | None:
        """Post-dispatch overhead that is *not* engine time.

        For the in-process service this is result assembly + cache
        insertion; for the pool it additionally covers worker-pipe wait
        and IPC, which is exactly the number an operator needs when
        deciding whether the pool thread or the engines are the bottleneck.
        """
        if self.dispatched is None or self.resolved is None:
            return None
        return max(self.resolved - self.dispatched - self.engine_s, 0.0)

    @property
    def total_s(self) -> float | None:
        if self.enqueued is None or self.resolved is None:
            return None
        return max(self.resolved - self.enqueued, 0.0)

    def to_event(self) -> dict:
        """JSON-friendly record with durations only (cross-process safe)."""
        event = {
            "event": "request",
            "trace_id": self.trace_id,
            "seed": self.seed,
            "size": self.size,
            "path": self.path,
            "queue_wait_s": _round6(self.queue_wait_s),
            "engine_s": _round6(self.engine_s),
            "collect_s": _round6(self.collect_s),
            "total_s": _round6(self.total_s),
        }
        if self.worker_id is not None:
            event["worker_id"] = self.worker_id
        if self.batch_size is not None:
            event["batch_size"] = self.batch_size
        if self.retries:
            event["retries"] = self.retries
        if self.error is not None:
            event["error"] = self.error
        return event


def _round6(value: float | None) -> float | None:
    return None if value is None else round(value, 6)


class TraceLog:
    """Append-only JSONL event log with deterministic span sampling.

    Every line is one JSON object with at least ``event`` (record type)
    and ``ts`` (wall-clock seconds, for humans correlating with other
    logs).  Request spans pass through the sampler; lifecycle events
    (``update``, ``epoch_advance``, ``worker_death``, ...) always log —
    they are rare and are precisely the context that makes a latency
    blip explicable.
    """

    def __init__(self, path, sample_rate: float = 1.0) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(f"sample_rate must be in [0, 1], got {sample_rate}")
        self.path = str(path)
        self.sample_rate = float(sample_rate)
        self._lock = threading.Lock()
        self._accumulator = 0.0
        self._handle = open(self.path, "a", encoding="utf-8")
        self._closed = False
        self.events_written = 0
        self.spans_sampled = 0
        self.spans_seen = 0

    def record_span(self, span: Span) -> bool:
        """Offer a completed span to the sampler; True if it was logged."""
        with self._lock:
            self.spans_seen += 1
            self._accumulator += self.sample_rate
            if self._accumulator < 1.0:
                return False
            self._accumulator -= 1.0
            self.spans_sampled += 1
            self._write_locked(span.to_event())
            return True

    def record_event(self, event: str, **fields) -> None:
        """Log an unsampled lifecycle event (update, worker death, ...)."""
        with self._lock:
            self._write_locked({"event": str(event), **fields})

    def _write_locked(self, record: dict) -> None:
        if self._closed:
            return
        record.setdefault("ts", round(time.time(), 6))
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()
        self.events_written += 1

    def close(self) -> None:
        with self._lock:
            if not self._closed:
                self._closed = True
                self._handle.close()

    def __enter__(self) -> "TraceLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
