"""Metrics core: thread-safe Counter / Gauge / Histogram in a registry.

Design constraints, in order:

1. **O(1) state per metric.**  Histograms use *fixed log-spaced bucket
   bounds* chosen at creation, so a snapshot is a handful of integers no
   matter how many observations rode through — a long-lived service
   never grows its metrics footprint (the same discipline the telemetry
   layer already applies to its percentile windows).
2. **Mergeable across processes.**  Two histograms with identical bounds
   merge by adding bucket counts; counters merge by adding values.
   :meth:`MetricsRegistry.drain` snapshots-and-resets a registry into a
   plain picklable structure that rides an existing IPC channel (a
   pool worker's result message) and lands in the head registry via
   :meth:`MetricsRegistry.merge` — merging is associative and
   commutative, so it does not matter how worker deltas interleave.
3. **Cheap on the hot path.**  One small lock acquire per operation;
   labeled children are resolved once and cached by the caller
   (``metric.labels("engine")`` returns a stable bound child).

Exposition: :meth:`MetricsRegistry.to_prometheus_text` renders the
standard Prometheus text format (version 0.0.4) including cumulative
histogram buckets, and :meth:`MetricsRegistry.snapshot` the JSON-friendly
equivalent served on ``/stats``.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from operator import add

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "log_buckets",
    "LATENCY_BUCKETS",
    "VOLUME_BUCKETS",
    "COUNT_BUCKETS",
]


def log_buckets(lo: float, hi: float, per_decade: int = 3) -> tuple[float, ...]:
    """Log-spaced histogram bounds from ``lo`` up to (at least) ``hi``.

    Bounds are rounded to 6 significant digits so two processes that
    compute the same spec produce *bitwise-identical* bounds — the
    precondition for merging their histograms.
    """
    if lo <= 0.0 or hi <= lo:
        raise ValueError(f"need 0 < lo < hi, got lo={lo}, hi={hi}")
    if per_decade < 1:
        raise ValueError(f"per_decade must be positive, got {per_decade}")
    bounds = []
    k = 0
    while True:
        bound = float(f"{lo * 10.0 ** (k / per_decade):.6g}")
        bounds.append(bound)
        if bound >= hi:
            return tuple(bounds)
        k += 1


#: Latency buckets: 1 µs … 100 s, 3 per decade (24 buckets + overflow).
LATENCY_BUCKETS = log_buckets(1e-6, 100.0, per_decade=3)
#: Touched-volume buckets: 1 … 1e9 edge-endpoints (Theorem IV.1's axis).
VOLUME_BUCKETS = log_buckets(1.0, 1e9, per_decade=3)
#: Small-count buckets (iterations, frontier sizes, batch occupancy).
COUNT_BUCKETS = log_buckets(1.0, 1e6, per_decade=4)


def _check_labelnames(labelnames) -> tuple[str, ...]:
    labelnames = tuple(str(name) for name in labelnames)
    for name in labelnames:
        if not name.isidentifier():
            raise ValueError(f"label name {name!r} is not an identifier")
    return labelnames


class _Metric:
    """Family of one name/type: unlabeled value or labeled children.

    One lock per family covers every child — label cardinality here is
    tiny (stages, kernels, worker ids), so contention stays negligible
    and snapshot/merge/reset are trivially consistent.
    """

    kind = "untyped"

    def __init__(self, name: str, help: str, labelnames=()) -> None:
        self.name = str(name)
        self.help = str(help)
        self.labelnames = _check_labelnames(labelnames)
        self._lock = threading.Lock()
        self._children: dict[tuple, object] = {}
        self._bound: dict[tuple, object] = {}
        if not self.labelnames:
            self._children[()] = self._new_state()

    # -- implemented by the concrete types ------------------------------
    def _new_state(self):
        raise NotImplementedError

    def _state_value(self, state):
        """JSON-friendly value of one child (float, or a histogram dict)."""
        raise NotImplementedError

    # -------------------------------------------------------------------
    def labels(self, *values) -> "_Metric":
        """Bound child for one label-value tuple (created on first use)."""
        if len(values) != len(self.labelnames):
            raise ValueError(
                f"{self.name} takes {len(self.labelnames)} label value(s) "
                f"{self.labelnames}, got {len(values)}"
            )
        key = tuple(str(value) for value in values)
        with self._lock:
            bound = self._bound.get(key)
            if bound is None:
                if key not in self._children:
                    self._children[key] = self._new_state()
                bound = _BoundChild(self, key)
                self._bound[key] = bound
        return bound

    def _child_state(self, key: tuple):
        with self._lock:
            state = self._children.get(key)
            if state is None:
                state = self._children[key] = self._new_state()
            return state

    def sample_items(self) -> dict[tuple, object]:
        """``{labelvalues: value}`` snapshot of every child."""
        with self._lock:
            return {
                key: self._state_value(state)
                for key, state in sorted(self._children.items())
            }


class _BoundChild:
    """Lightweight proxy pinning a family to one label-value tuple."""

    __slots__ = ("_family", "_key")

    def __init__(self, family: _Metric, key: tuple) -> None:
        self._family = family
        self._key = key

    def __getattr__(self, name):
        method = getattr(type(self._family), f"_{name}_child", None)
        if method is None:
            raise AttributeError(name)
        family, key = self._family, self._key
        return lambda *args, **kwargs: method(family, key, *args, **kwargs)


class Counter(_Metric):
    """Monotonically increasing value (float, so seconds totals fit)."""

    kind = "counter"

    def _new_state(self):
        return [0.0]

    def _state_value(self, state):
        return state[0]

    def _inc_child(self, key: tuple, amount: float = 1.0) -> None:
        amount = float(amount)
        if amount < 0.0:
            raise ValueError(f"counter {self.name} cannot decrease ({amount})")
        with self._lock:
            state = self._children.get(key)
            if state is None:
                state = self._children[key] = self._new_state()
            state[0] += amount

    def inc(self, amount: float = 1.0) -> None:
        self._inc_child((), amount)

    @property
    def value(self) -> float:
        return self._child_state(())[0]


class Gauge(_Metric):
    """Point-in-time value; supports set / inc / dec / set_max."""

    kind = "gauge"

    def _new_state(self):
        return [0.0]

    def _state_value(self, state):
        return state[0]

    def _set_child(self, key: tuple, value: float) -> None:
        with self._lock:
            state = self._children.get(key)
            if state is None:
                state = self._children[key] = self._new_state()
            state[0] = float(value)

    def _inc_child(self, key: tuple, amount: float = 1.0) -> None:
        with self._lock:
            state = self._children.get(key)
            if state is None:
                state = self._children[key] = self._new_state()
            state[0] += float(amount)

    def _set_max_child(self, key: tuple, value: float) -> None:
        with self._lock:
            state = self._children.get(key)
            if state is None:
                state = self._children[key] = self._new_state()
            if value > state[0]:
                state[0] = float(value)

    def set(self, value: float) -> None:
        self._set_child((), value)

    def inc(self, amount: float = 1.0) -> None:
        self._inc_child((), amount)

    def dec(self, amount: float = 1.0) -> None:
        self._inc_child((), -amount)

    def set_max(self, value: float) -> None:
        self._set_max_child((), value)

    @property
    def value(self) -> float:
        return self._child_state(())[0]


class _HistogramState:
    __slots__ = ("counts", "sum")

    def __init__(self, n_buckets: int) -> None:
        # counts[i] observations in (bounds[i-1], bounds[i]];
        # counts[-1] is the overflow bucket (> bounds[-1]).
        self.counts = [0] * n_buckets
        self.sum = 0.0


class Histogram(_Metric):
    """Fixed log-spaced-bucket histogram: O(1) memory, mergeable.

    ``bounds`` are *upper* bucket bounds (ascending); an implicit
    overflow bucket catches everything above the last bound.  Two
    histograms merge iff their bounds are identical.
    """

    kind = "histogram"

    def __init__(self, name, help, bounds=LATENCY_BUCKETS, labelnames=()) -> None:
        bounds = tuple(float(bound) for bound in bounds)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError("histogram bounds must be ascending and unique")
        self.bounds = bounds
        super().__init__(name, help, labelnames)

    def _new_state(self):
        return _HistogramState(len(self.bounds) + 1)

    def _state_value(self, state):
        return {
            "bounds": list(self.bounds),
            "counts": list(state.counts),
            "sum": state.sum,
            "count": sum(state.counts),
        }

    def _observe_child(self, key: tuple, value: float) -> None:
        value = float(value)
        index = bisect_left(self.bounds, value)
        with self._lock:
            state = self._children.get(key)
            if state is None:
                state = self._children[key] = self._new_state()
            state.counts[index] += 1
            state.sum += value

    def observe(self, value: float) -> None:
        self._observe_child((), value)

    # -- derived reads --------------------------------------------------
    def _summary_child(self, key: tuple) -> dict:
        with self._lock:
            state = self._children.get(key)
            if state is None:
                state = self._children[key] = self._new_state()
            counts = list(state.counts)
            total = sum(counts)
            total_sum = state.sum
        return {
            "count": total,
            "sum": round(total_sum, 6),
            "mean": round(total_sum / total, 6) if total else 0.0,
            "p50": round(self._quantile_locked(counts, 0.50), 6),
            "p95": round(self._quantile_locked(counts, 0.95), 6),
        }

    def summary(self) -> dict:
        """count/sum/mean plus bucket-interpolated p50/p95 estimates."""
        return self._summary_child(())

    def _quantile_child(self, key: tuple, q: float) -> float:
        with self._lock:
            state = self._children.get(key)
            counts = list(state.counts) if state is not None else []
        return self._quantile_locked(counts, q)

    def quantile(self, q: float) -> float:
        """Bucket-interpolated ``q``-quantile estimate (0.0 when empty).

        Exact only up to bucket resolution — the price of O(1) state.
        The serving telemetry therefore reports *window-exact*
        percentiles in ``stats()`` and leaves these estimates to the
        Prometheus side, where the scraper computes them from buckets
        anyway.
        """
        return self._quantile_child((), q)

    def _quantile_locked(self, counts: list, q: float) -> float:
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        total = sum(counts)
        if total == 0:
            return 0.0
        rank = q * total
        cumulative = 0
        for index, count in enumerate(counts):
            if count == 0:
                continue
            if cumulative + count >= rank:
                lo = self.bounds[index - 1] if index > 0 else 0.0
                hi = (
                    self.bounds[index]
                    if index < len(self.bounds)
                    else self.bounds[-1]
                )
                fraction = (rank - cumulative) / count
                return lo + (hi - lo) * min(max(fraction, 0.0), 1.0)
            cumulative += count
        return self.bounds[-1]


_METRIC_TYPES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Named collection of metrics with exposition, drain, and merge.

    ``get-or-create`` accessors make registration idempotent: asking for
    an existing name returns the existing metric (and raises if the
    type, labels, or bounds disagree — silent aliasing would corrupt
    exposition).  ``hooks`` run right before any snapshot/exposition so
    point-in-time gauges (queue depth, cache size, epoch) can be pulled
    from live objects instead of being pushed on every change.
    """

    def __init__(self, namespace: str = "") -> None:
        self.namespace = str(namespace)
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}
        self._hooks: list = []

    # -- registration ---------------------------------------------------
    def _get_or_create(self, cls, name: str, help: str, labelnames, **kwargs):
        name = str(name)
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, requested {cls.kind}"
                    )
                if existing.labelnames != _check_labelnames(labelnames):
                    raise ValueError(
                        f"metric {name!r} already registered with labels "
                        f"{existing.labelnames}, requested {tuple(labelnames)}"
                    )
                bounds = kwargs.get("bounds")
                if bounds is not None and tuple(map(float, bounds)) != existing.bounds:
                    raise ValueError(
                        f"histogram {name!r} already registered with "
                        "different bucket bounds"
                    )
                return existing
            metric = cls(name, help, labelnames=labelnames, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "", labelnames=()) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames=()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(
        self, name: str, help: str = "", bounds=LATENCY_BUCKETS, labelnames=()
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help, labelnames, bounds=bounds
        )

    def get(self, name: str) -> _Metric | None:
        with self._lock:
            return self._metrics.get(name)

    def add_hook(self, hook) -> None:
        """Register a zero-arg callable run before every snapshot."""
        with self._lock:
            self._hooks.append(hook)

    def _run_hooks(self) -> None:
        with self._lock:
            hooks = list(self._hooks)
        for hook in hooks:
            hook()

    # -- snapshots ------------------------------------------------------
    def collect(self, run_hooks: bool = True) -> list[dict]:
        """Self-describing family list (the merge/drain wire format)."""
        if run_hooks:
            self._run_hooks()
        with self._lock:
            metrics = list(self._metrics.values())
        families = []
        for metric in metrics:
            family = {
                "name": metric.name,
                "type": metric.kind,
                "help": metric.help,
                "labelnames": list(metric.labelnames),
                "samples": [
                    [list(key), value]
                    for key, value in metric.sample_items().items()
                ],
            }
            if isinstance(metric, Histogram):
                family["bounds"] = list(metric.bounds)
            families.append(family)
        return families

    def drain(self) -> list[dict]:
        """Snapshot counters and histograms, atomically resetting them.

        The returned delta is picklable and merge-safe: successive
        drains partition the observation stream, so
        ``merge(d1); merge(d2)`` equals one registry that saw
        everything.  Gauges are point-in-time and do not drain.
        """
        with self._lock:
            metrics = list(self._metrics.values())
        families = []
        for metric in metrics:
            if metric.kind == "gauge":
                continue
            with metric._lock:
                samples = []
                for key in sorted(metric._children):
                    state = metric._children[key]
                    value = metric._state_value(state)
                    metric._children[key] = metric._new_state()
                    samples.append([list(key), value])
            if not samples:
                continue
            family = {
                "name": metric.name,
                "type": metric.kind,
                "help": metric.help,
                "labelnames": list(metric.labelnames),
                "samples": samples,
            }
            if isinstance(metric, Histogram):
                family["bounds"] = list(metric.bounds)
            families.append(family)
        return families

    def merge(self, families: list[dict]) -> None:
        """Fold a :meth:`collect`/:meth:`drain` payload into this registry.

        Metrics missing here are created from the payload's
        self-description, so a head process can merge worker deltas
        without pre-registering every name.  Counter/histogram samples
        add; gauge samples overwrite (last write wins).  Histogram
        merges require identical bounds.
        """
        for family in families:
            kind = family["type"]
            cls = _METRIC_TYPES[kind]
            kwargs = {}
            if kind == "histogram":
                kwargs["bounds"] = family.get("bounds") or LATENCY_BUCKETS
            metric = self._get_or_create(
                cls,
                family["name"],
                family.get("help", ""),
                family.get("labelnames", ()),
                **kwargs,
            )
            for labelvalues, value in family["samples"]:
                key = tuple(str(v) for v in labelvalues)
                if kind == "counter":
                    metric._inc_child(key, value)
                elif kind == "gauge":
                    metric._set_child(key, value)
                else:
                    if tuple(value["bounds"]) != metric.bounds:
                        raise ValueError(
                            f"histogram {metric.name!r}: cannot merge "
                            "mismatched bucket bounds"
                        )
                    with metric._lock:
                        state = metric._children.get(key)
                        if state is None:
                            state = metric._children[key] = metric._new_state()
                        state.counts = list(map(add, state.counts, value["counts"]))
                        state.sum += value["sum"]

    def snapshot(self) -> dict:
        """Flat JSON-friendly mapping ``name{labels} -> value`` (/stats)."""
        out: dict[str, object] = {}
        for family in self.collect():
            labelnames = family["labelnames"]
            for labelvalues, value in family["samples"]:
                if labelnames:
                    rendered = ",".join(
                        f"{name}={val}"
                        for name, val in zip(labelnames, labelvalues)
                    )
                    key = f"{family['name']}{{{rendered}}}"
                else:
                    key = family["name"]
                out[key] = value
        return out

    # -- exposition -----------------------------------------------------
    def to_prometheus_text(self) -> str:
        """Standard Prometheus text exposition (format version 0.0.4)."""
        lines: list[str] = []
        for family in self.collect():
            name, kind = family["name"], family["type"]
            labelnames = family["labelnames"]
            if family["help"]:
                lines.append(f"# HELP {name} {_escape_help(family['help'])}")
            lines.append(f"# TYPE {name} {kind}")
            for labelvalues, value in family["samples"]:
                pairs = list(zip(labelnames, labelvalues))
                if kind == "histogram":
                    cumulative = 0
                    bounds = list(family["bounds"]) + [float("inf")]
                    for bound, count in zip(bounds, value["counts"]):
                        cumulative += count
                        le = "+Inf" if bound == float("inf") else _fmt(bound)
                        lines.append(
                            f"{name}_bucket"
                            f"{_labels(pairs + [('le', le)])} {cumulative}"
                        )
                    lines.append(f"{name}_sum{_labels(pairs)} {_fmt(value['sum'])}")
                    lines.append(
                        f"{name}_count{_labels(pairs)} {value['count']}"
                    )
                else:
                    lines.append(f"{name}{_labels(pairs)} {_fmt(value)}")
        return "\n".join(lines) + "\n"


def _fmt(value: float) -> str:
    value = float(value)
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.10g}"


def _labels(pairs) -> str:
    if not pairs:
        return ""
    rendered = ",".join(f'{name}="{_escape_label(value)}"' for name, value in pairs)
    return "{" + rendered + "}"


def _escape_label(value) -> str:
    return (
        str(value)
        .replace("\\", r"\\")
        .replace("\n", r"\n")
        .replace('"', r"\"")
    )


def _escape_help(value: str) -> str:
    return str(value).replace("\\", r"\\").replace("\n", r"\n")
