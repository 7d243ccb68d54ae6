"""Layer tracing from outside the program.

The benchmark measures each layer of ``repro`` by replacing the layer's
public functions, at the name where their caller looks them up, with a
wrapper that records a span: name, start, end, parent and self time
(duration minus the time its child spans cover).  Spans stay in memory
until the run ends.

Wrappers are installed once per traced run and switched on and off by
one shared byte, so the same wrappers work in pool workers forked after
installation.  A worker cannot hand its span list back, so there each
span is folded into histograms of the worker's own metrics registry,
which the pool already drains into the head registry with every block.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import threading
import time
from dataclasses import dataclass

from repro.obs.metrics import COUNT_BUCKETS, log_buckets

#: Bucket bounds of the worker-side span histograms (about 6% wide).
SPAN_BUCKETS = log_buckets(1e-6, 100.0, per_decade=40)

SPAN_SECONDS = "perfbench_span_seconds"
SPAN_SIZE = "perfbench_span_size"


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    self_s: float
    parent: str | None
    phase: str
    size: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class _Frame:
    __slots__ = ("name", "child_s")

    def __init__(self, name: str) -> None:
        self.name = name
        self.child_s = 0.0


class Tracer:
    """Installs span-recording wrappers and keeps their spans.

    ``phase`` labels every span recorded while it is set, so one run can
    separate set-up, served queries, the raw engine loop and updates.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.phase = "setup"
        # One byte in shared memory: parent and forked workers read it.
        self._on = multiprocessing.RawValue("b", 0)
        self._local = threading.local()
        self._in_child = False
        self._child_sink = None
        os.register_at_fork(after_in_child=self._after_fork)

    # -- switching -----------------------------------------------------
    @property
    def active(self) -> bool:
        return bool(self._on.value)

    def enable(self) -> None:
        self._on.value = 1

    def disable(self) -> None:
        self._on.value = 0

    def _after_fork(self) -> None:
        self._in_child = True
        self._local = threading.local()
        self.spans = []

    # -- installation --------------------------------------------------
    def wrap(self, owner, attr: str, name: str, size=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``owner`` is the module or class the caller looks ``attr`` up
        in; ``size(args, kwargs)`` optionally tags the span with a work
        size (block width, seed count).
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer._on.value:
                return original(*args, **kwargs)
            stack = tracer._stack()
            frame = _Frame(name)
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent.child_s += duration
                tracer._record(
                    name,
                    start,
                    end,
                    duration - frame.child_s,
                    parent.name if parent is not None else None,
                    size(args, kwargs) if size is not None else 0,
                )

        setattr(owner, attr, wrapper)

    def capture_worker_registry(self, module, attr: str = "make_engine_metrics") -> None:
        """Learn each pool worker's metrics registry.

        Workers build their private registry through
        ``make_engine_metrics(registry)``; wrapping that name lets a
        worker's spans ride the registry deltas the pool already ships
        home.
        """
        original = getattr(module, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(registry, *args, **kwargs):
            if tracer._in_child:
                tracer._child_sink = (
                    registry.histogram(SPAN_SECONDS, bounds=SPAN_BUCKETS, labelnames=("span",)),
                    registry.histogram(SPAN_SIZE, bounds=COUNT_BUCKETS, labelnames=("span",)),
                )
            return original(registry, *args, **kwargs)

        setattr(module, attr, wrapper)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name, start, end, self_s, parent, size) -> None:
        if self._in_child:
            sink = self._child_sink
            if sink is not None:
                sink[0].labels(name).observe(end - start)
                sink[1].labels(name).observe(size)
            return
        self.spans.append(Span(name, start, end, self_s, parent, self.phase, size))

    # -- spans opened by the benchmark itself ---------------------------
    def timed(self, name: str):
        """Context manager recording a span around the benchmark's own call."""
        return _TimedSpan(self, name)

    def select(self, name: str, phase: str | None = None) -> list[Span]:
        return [
            span
            for span in self.spans
            if span.name == name and (phase is None or span.phase == phase)
        ]


class _TimedSpan:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *_exc) -> None:
        end = time.perf_counter()
        if self.tracer.active:
            self.tracer._record(self.name, self.start, end, end - self.start, None, 0)


def worker_distribution(registry, name: str) -> dict | None:
    """Merged worker-side figures for span ``name`` from a head registry.

    Returns the count, the summed duration and size, and the
    bucket-interpolated median duration, or None when no worker recorded
    the span.
    """
    family = registry.get(SPAN_SECONDS)
    if family is None:
        return None
    durations = family.labels(name)
    summary = durations.summary()
    if not summary["count"]:
        return None
    return {
        "count": summary["count"],
        "sum_s": summary["sum"],
        "p50_s": durations.quantile(0.5),
        "size_sum": registry.get(SPAN_SIZE).labels(name).summary()["sum"],
    }
