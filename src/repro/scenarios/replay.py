"""Event-stream replay harness for the serving layer.

Drives a :class:`~repro.serving.ClusterService` (with or without
worker processes — same surface) with a realistic **mixed
read/write trace**: each epoch interleaves Zipf-seeded, bursty query
arrivals around one ``apply_update`` on the scenario's delta stream.
Schedules are deterministic in the replay seed, so two replays of the
same scenario submit the identical request sequence — the property the
chaos tests lean on to demand bitwise-identical drains under worker
kills.

Two arrival modes:

* **closed-loop** (default): requests are submitted as fast as the
  service admits them; throughput is service-paced.
* **open-loop**: requests are paced by a seeded bursty Poisson schedule
  (``rate_qps`` with periodic ``burst_factor`` spikes), the standard
  open-system model for tail-latency measurement.

Beyond synthetic :class:`~repro.scenarios.DynamicScenario` streams, the
harness replays **Enron-style timestamped edge files** — ``u v t`` rows
bucketed into epoch windows and lifted into deltas via
``GraphDelta.from_mapping`` (:func:`timestamped_edge_deltas`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..core.pipeline import LACA
from ..eval.metrics import f1_score, recall
from .drift import SeedTracker
from ..graphs.graph import AttributedGraph
from ..graphs.store import GraphDelta
from ..serving.service import DeadlineExceeded, PoolSaturated

__all__ = [
    "ReplayConfig",
    "ReplayResult",
    "EventStreamScenario",
    "replay",
    "sample_seeds_zipf",
    "arrival_offsets",
    "parse_timestamped_edges",
    "timestamped_edge_deltas",
]


# ----------------------------------------------------------------------
# Seeded schedules
# ----------------------------------------------------------------------
def sample_seeds_zipf(
    candidates: np.ndarray,
    count: int,
    exponent: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """``count`` query seeds drawn Zipf-skewed over ``candidates``.

    A seeded permutation assigns each candidate a popularity rank; seeds
    are then drawn with probability ∝ ``1/rank^exponent`` — the bounded
    Zipf law of real query traffic (a handful of hot seeds dominate).
    """
    candidates = np.asarray(candidates, dtype=np.int64)
    if candidates.shape[0] == 0:
        raise ValueError("no candidate seeds to sample from")
    ranked = rng.permutation(candidates)
    weights = 1.0 / np.arange(1, ranked.shape[0] + 1, dtype=np.float64) ** exponent
    weights /= weights.sum()
    return ranked[rng.choice(ranked.shape[0], size=count, p=weights)]


def arrival_offsets(
    count: int,
    rate_qps: float,
    rng: np.random.Generator,
    burst_every: int = 50,
    burst_length: int = 10,
    burst_factor: float = 8.0,
) -> np.ndarray:
    """Cumulative arrival times of a bursty open-loop schedule.

    Exponential inter-arrivals at ``rate_qps``, with every
    ``burst_every``-th stretch of ``burst_length`` arrivals compressed by
    ``burst_factor`` — the flash-crowd spikes that stress admission
    control.
    """
    if count <= 0:
        return np.empty(0)
    gaps = rng.exponential(1.0 / max(rate_qps, 1e-9), size=count)
    if burst_every > 0 and burst_factor > 1.0:
        index = np.arange(count)
        in_burst = (index % burst_every) < burst_length
        gaps[in_burst] /= burst_factor
    return np.cumsum(gaps)


# ----------------------------------------------------------------------
# Timestamped-edge streams (Enron-style replay)
# ----------------------------------------------------------------------
def parse_timestamped_edges(lines) -> np.ndarray:
    """Parse ``u v t`` rows (whitespace-separated; ``#`` comments ok)."""
    rows = []
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) < 3:
            raise ValueError(f"expected 'u v t' row, got {line!r}")
        rows.append((int(parts[0]), int(parts[1]), float(parts[2])))
    if not rows:
        raise ValueError("no timestamped edges in input")
    return np.array(rows, dtype=np.float64)


def timestamped_edge_deltas(
    events: np.ndarray,
    windows: int,
    base_windows: int = 1,
    name: str = "timestamped",
) -> tuple[AttributedGraph, list[GraphDelta]]:
    """Lift a timestamped edge stream into a base graph + delta stream.

    Events are sorted by timestamp (stable), node ids are remapped by
    first appearance — so every node appended by a window is contiguous
    and connected by that same window's edges, exactly what
    ``GraphDelta`` requires — then bucketed into ``windows`` equal-count
    windows.  The first ``base_windows`` become the base snapshot; each
    later window becomes one delta built through
    ``GraphDelta.from_mapping`` (the CLI/WAL JSONL schema).  Re-sent
    edges are no-ops, matching multigraph email traffic.
    """
    events = np.asarray(events)
    if windows < base_windows + 1:
        raise ValueError("need at least one window beyond the base")
    order = np.argsort(events[:, 2], kind="stable")
    stream = events[order]

    remap: dict[int, int] = {}
    pairs = np.empty((stream.shape[0], 2), dtype=np.int64)
    for i, (u, v, _t) in enumerate(stream):
        for j, node in enumerate((int(u), int(v))):
            if node not in remap:
                remap[node] = len(remap)
            pairs[i, j] = remap[node]

    keep = pairs[:, 0] != pairs[:, 1]
    pairs = pairs[keep]
    buckets = np.array_split(pairs, windows)
    base_edges = np.concatenate(buckets[:base_windows])
    n = int(base_edges.max()) + 1
    base = AttributedGraph.from_edges(n, base_edges, name=name)

    deltas = []
    for bucket in buckets[base_windows:]:
        if bucket.shape[0] == 0:
            deltas.append(GraphDelta.from_mapping({}))
            continue
        new_high = int(bucket.max()) + 1
        payload = {"add_edges": bucket.tolist()}
        if new_high > n:
            payload["add_nodes"] = new_high - n
            n = new_high
        deltas.append(GraphDelta.from_mapping(payload))
    return base, deltas


class EventStreamScenario:
    """A replayable stream with no planted truth (e.g. timestamped edges).

    Presents the same surface :func:`replay` needs from a
    :class:`~repro.scenarios.DynamicScenario`; ``labels_at`` returning
    ``None`` switches the harness to throughput/latency-only mode.
    """

    def __init__(self, base: AttributedGraph, deltas: list[GraphDelta]) -> None:
        self.base = base
        self.deltas = list(deltas)
        counts = [base.n]
        for delta in self.deltas:
            counts.append(counts[-1] + delta.add_nodes)
        self._counts = counts

    @classmethod
    def from_timestamped_edges(
        cls, events: np.ndarray, windows: int, base_windows: int = 1
    ) -> "EventStreamScenario":
        base, deltas = timestamped_edge_deltas(events, windows, base_windows)
        return cls(base, deltas)

    @property
    def epochs(self) -> int:
        return len(self.deltas)

    @property
    def records(self) -> list:
        return [
            _PlainRecord(epoch=i + 1, delta=delta, labels=None, events=())
            for i, delta in enumerate(self.deltas)
        ]

    def n_at(self, epoch: int) -> int:
        return self._counts[epoch]

    def labels_at(self, epoch: int):
        return None

    def ground_truth(self, epoch: int, node: int):
        return None

    def community_nodes(self, epoch: int) -> np.ndarray:
        return np.arange(self.n_at(epoch), dtype=np.int64)


@dataclass(frozen=True)
class _PlainRecord:
    epoch: int
    delta: GraphDelta
    labels: object
    events: tuple


# ----------------------------------------------------------------------
# The replay loop
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ReplayConfig:
    """Shape of the mixed read/write trace one replay submits.

    ``size=None`` sizes each query by its planted cluster at the epoch
    it was issued against (the paper's ``|Cs| = |Ys|`` protocol);
    truthless streams fall back to ``fallback_size``.  ``verify_every=k``
    refits a fresh model from scratch every ``k`` epochs and demands the
    service's (cached or incrementally refreshed) answers be
    bitwise-equal.
    """

    queries_per_epoch: int = 64
    size: int | None = None
    fallback_size: int = 20
    zipf_exponent: float = 1.1
    mode: str = "closed"
    rate_qps: float = 2000.0
    burst_every: int = 50
    burst_length: int = 10
    burst_factor: float = 8.0
    seed: int = 0
    track_seeds: int = 8
    verify_every: int = 0
    verify_sample: int = 4
    keep_answers: bool = False
    drain_before_update: bool = False

    def __post_init__(self) -> None:
        if self.mode not in ("closed", "open"):
            raise ValueError(f"mode must be 'closed' or 'open', got {self.mode!r}")


@dataclass
class ReplayResult:
    """Per-epoch reports plus trace-wide aggregates."""

    epochs: list[dict]
    latencies_s: np.ndarray
    answers: list[tuple[int, int, int, tuple]] | None = None

    def summary(self) -> dict:
        reports = self.epochs
        total_queries = int(sum(r["queries"] for r in reports))
        update_times = [r["update_s"] for r in reports]
        recalls = [r["mean_recall"] for r in reports if r["mean_recall"] is not None]
        stabilities = [
            r["tracked_stability"] for r in reports
            if r["tracked_stability"] is not None
        ]
        verified = [r["verified_bitwise"] for r in reports
                    if r["verified_bitwise"] is not None]
        lat = self.latencies_s
        out = {
            "epochs": len(reports),
            "queries": total_queries,
            "shed": int(sum(r["shed"] for r in reports)),
            "deadline_misses": int(sum(r["deadline_misses"] for r in reports)),
            "query_p50_ms": float(np.percentile(lat, 50) * 1e3) if lat.size else None,
            "query_p95_ms": float(np.percentile(lat, 95) * 1e3) if lat.size else None,
            "mean_update_s": float(np.mean(update_times)) if update_times else None,
            "updates_per_s": (
                float(1.0 / np.mean(update_times))
                if update_times and np.mean(update_times) > 0
                else None
            ),
            "mean_tracking_recall": float(np.mean(recalls)) if recalls else None,
            "mean_tracked_stability": (
                float(np.mean(stabilities)) if stabilities else None
            ),
            "entries_invalidated": int(
                sum(r["entries_invalidated"] for r in reports)
            ),
            "cache_hits": int(sum(r["cache_hits"] for r in reports)),
            "cache_misses": int(sum(r["cache_misses"] for r in reports)),
            "all_verified_bitwise": bool(all(verified)) if verified else None,
        }
        hits, misses = out["cache_hits"], out["cache_misses"]
        out["cache_hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
        return out


def _query_size(scenario, epoch: int, seed: int, config: ReplayConfig) -> int:
    if config.size is not None:
        return config.size
    truth = scenario.ground_truth(epoch, seed)
    if truth is None or truth.shape[0] == 0:
        return config.fallback_size
    return int(truth.shape[0])


_NO_CACHE = {"hits": 0, "misses": 0, "invalidations": 0}


def _cache_stats(service) -> dict:
    """Cache counters, zeroed when the service runs cache-less."""
    stats = service.stats().get("cache")
    return stats if stats is not None else _NO_CACHE


def replay(service, scenario, config: ReplayConfig = ReplayConfig()) -> ReplayResult:
    """Drive ``service`` through ``scenario``'s delta stream.

    Each epoch submits half its queries against the old snapshot,
    applies the epoch's delta (an epoch barrier for everything submitted
    after it), submits the other half, then drains and scores: recall/F1
    against the planted partition at the epoch each query was issued
    against, Jaccard stability of tracked seeds' clusters across epochs,
    and the cache's hit/invalidation counters for the staleness
    ledger.  The service is left open; callers own its lifecycle.
    """
    rng = np.random.default_rng(config.seed)
    has_truth = scenario.labels_at(0) is not None

    track_pool = scenario.community_nodes(0)
    n_track = min(config.track_seeds, track_pool.shape[0])
    tracked = np.sort(rng.choice(track_pool, size=n_track, replace=False))
    tracker = SeedTracker(tracked)

    reports: list[dict] = []
    all_latencies: list[float] = []
    answers: list[tuple[int, int, int, tuple]] | None = (
        [] if config.keep_answers else None
    )

    for record in scenario.records:
        epoch = record.epoch
        half = config.queries_per_epoch // 2
        pre_seeds = sample_seeds_zipf(
            scenario.community_nodes(epoch - 1), half, config.zipf_exponent, rng
        )
        post_seeds = sample_seeds_zipf(
            scenario.community_nodes(epoch),
            config.queries_per_epoch - half,
            config.zipf_exponent,
            rng,
        )
        offsets = arrival_offsets(
            config.queries_per_epoch,
            config.rate_qps,
            rng,
            burst_every=config.burst_every,
            burst_length=config.burst_length,
            burst_factor=config.burst_factor,
        )

        pending: list[tuple[int, int, int, object, float]] = []
        shed = 0
        epoch_start = time.perf_counter()

        def _submit(seed: int, size: int, eval_epoch: int, offset: float) -> None:
            nonlocal shed
            if config.mode == "open":
                lag = offset - (time.perf_counter() - epoch_start)
                if lag > 0:
                    time.sleep(lag)
            submitted = time.perf_counter()
            try:
                future = service.submit(int(seed), int(size))
            except PoolSaturated:
                shed += 1
                return
            pending.append((int(seed), int(size), eval_epoch, future, submitted))

        cache_before = _cache_stats(service)

        for index, seed in enumerate(pre_seeds):
            _submit(
                seed, _query_size(scenario, epoch - 1, int(seed), config),
                epoch - 1, float(offsets[index]),
            )
        if config.drain_before_update:
            # Epoch barrier for chaos comparisons: a pool worker killed
            # mid-block would otherwise retry its pre-epoch queries
            # after the advance and fail them with a stale-epoch error,
            # making the answer stream differ from a fault-free run.
            for _, _, _, future, _ in pending:
                future.exception()
        update_stats = service.apply_update(record.delta)
        for index, seed in enumerate(post_seeds):
            _submit(
                seed, _query_size(scenario, epoch, int(seed), config),
                epoch, float(offsets[half + index]),
            )
        tracked_futures = [
            (int(seed), service.submit(
                int(seed), _query_size(scenario, epoch, int(seed), config)
            ))
            for seed in tracked
        ]

        latencies: list[float] = []
        recalls: list[float] = []
        f1s: list[float] = []
        deadline_misses = 0
        for seed, size, eval_epoch, future, submitted in pending:
            try:
                cluster = future.result()
            except DeadlineExceeded:
                deadline_misses += 1
                continue
            latencies.append(time.perf_counter() - submitted)
            if answers is not None:
                answers.append((epoch, seed, size, tuple(int(v) for v in cluster)))
            if has_truth:
                truth = scenario.ground_truth(eval_epoch, seed)
                recalls.append(recall(cluster, truth))
                f1s.append(f1_score(cluster, truth))

        tracked_clusters = {
            seed: np.asarray(future.result()) for seed, future in tracked_futures
        }
        stability = list(tracker.observe(tracked_clusters).values())
        if answers is not None:
            for seed, cluster in tracked_clusters.items():
                answers.append(
                    (epoch, seed, cluster.shape[0], tuple(int(v) for v in cluster))
                )

        verified = None
        if (
            config.verify_every
            and has_truth
            and epoch % config.verify_every == 0
        ):
            verified = _verify_epoch(service, scenario, epoch, config, pending)

        cache_after = _cache_stats(service)
        all_latencies.extend(latencies)
        reports.append({
            "epoch": epoch,
            "n": scenario.n_at(epoch),
            "events": [dict(event) for event in record.events],
            "queries": len(pending),
            "shed": shed,
            "deadline_misses": deadline_misses,
            "update_s": update_stats["update_s"],
            "entries_invalidated": update_stats["entries_invalidated"],
            "query_p50_ms": (
                float(np.percentile(latencies, 50) * 1e3) if latencies else None
            ),
            "query_p95_ms": (
                float(np.percentile(latencies, 95) * 1e3) if latencies else None
            ),
            "mean_recall": float(np.mean(recalls)) if recalls else None,
            "mean_f1": float(np.mean(f1s)) if f1s else None,
            "tracked_stability": float(np.mean(stability)) if stability else None,
            "cache_hits": cache_after["hits"] - cache_before["hits"],
            "cache_misses": cache_after["misses"] - cache_before["misses"],
            "cache_invalidations": (
                cache_after["invalidations"] - cache_before["invalidations"]
            ),
            "verified_bitwise": verified,
        })

    return ReplayResult(
        epochs=reports,
        latencies_s=np.asarray(all_latencies),
        answers=answers,
    )


def _verify_epoch(service, scenario, epoch, config, pending) -> bool:
    """Refit from scratch at ``epoch``; demand bitwise-equal answers.

    Exercises the full incremental stack — ``GraphStore`` splice,
    ``LACA.refresh``, the per-epoch result cache — against the ground
    truth of a cold fit on the from-scratch snapshot.
    """
    fresh = LACA(service.model.config).fit(scenario.graph_at(epoch))
    checked = 0
    seen: set[tuple[int, int]] = set()
    for seed, size, eval_epoch, _future, _submitted in pending:
        if eval_epoch != epoch or (seed, size) in seen:
            continue
        seen.add((seed, size))
        served = service.cluster(seed, size)
        if not np.array_equal(served, fresh.cluster(seed, size)):
            return False
        checked += 1
        if checked >= config.verify_sample:
            break
    return True
