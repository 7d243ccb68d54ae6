"""The three workloads: inputs, set-up, closed query loop, updates and the
correctness gate.

Each workload keeps a fixed window of requests outstanding from one
generator thread (a closed loop) and measures for the requested number of
seconds.  Inputs derive from the workload seed; the program receives only
the generated graph, queries and deltas.
"""

from __future__ import annotations

import gc
import math
import os
import queue
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.config import LacaConfig
from repro.core.pipeline import LACA
from repro.graphs import GraphStore, load_dataset
from repro.graphs.store import GraphDelta
from repro.scenarios import DynamicSBMConfig, generate_dynamic_sbm
from repro.scenarios.replay import sample_seeds_zipf
from repro.serving import ClusterService, PoolClusterService

from tracer import Tracer

CLUSTER_SIZE = 20
#: The churn scenario is fixed, like the registered datasets; the workload
#: seed draws the queries.  Seed-dependent scenarios moved update and
#: query costs between runs by more than the timing noise.
SCENARIO_SEED = 11


@dataclass(frozen=True)
class StaticSpec:
    """A registered dataset served in-process, with no repeated seeds."""

    dataset: str
    scale: float
    window: int = 16
    #: Answers every run must reach; precision and the gate use these.
    min_answers: int = 48
    gate_sample: int = 16
    updates: int = 6
    #: ``setup_s`` is the median of this many set-ups.
    setup_repeats: int = 3
    config: LacaConfig = field(
        default_factory=lambda: LacaConfig(metric="cosine", diffusion="greedy")
    )


@dataclass(frozen=True)
class ChurnSpec:
    """A dynamic SBM served by the process pool under epoch updates."""

    scenario: DynamicSBMConfig
    window: int = 8
    queries_per_epoch: int = 32
    zipf: float = 1.1
    workers: int = 2
    cache_size: int = 4096
    #: Epochs every run serves, so runs of one scenario apply the same
    #: updates (the merge and split deltas cost twice the others); the
    #: gate checks answers of ``gate_epochs``.
    min_epochs: int = 20
    #: A set-up (scenario generation for all epochs, fit, pool start)
    #: takes ~5 s, so two of them keep the run within budget.
    setup_repeats: int = 2
    gate_epochs: tuple[int, ...] = (0, 2, 4)
    gate_per_epoch: int = 6
    config: LacaConfig = field(
        default_factory=lambda: LacaConfig(
            metric="cosine", diffusion="greedy", epsilon=1e-4
        )
    )


def churn_scenario(n: int, epochs: int) -> DynamicSBMConfig:
    return DynamicSBMConfig(
        n=n,
        n_communities=40,
        avg_degree=10.0,
        mixing=0.1,
        d=64,
        epochs=epochs,
        churn_fraction=0.001,
        birth_fraction=0.001,
        death_fraction=0.001,
        drift_fraction=0.001,
        merge_epochs=(2,),
        split_epochs=(4,),
    )


WORKLOADS = {
    # Blocks of 16 take ~4 s here: 96 answers give six of them.  Each
    # update of the 168k-node graph rebuilds the TNAM for ~7 s on one BLAS
    # thread and a set-up takes ~12 s, so one update and two set-ups keep
    # the run within budget; with one BLAS thread these long operations
    # differ by about 5% between runs.
    "local": StaticSpec("arxiv", 21.0, min_answers=96, updates=1, setup_repeats=2),
    # 1088 answers fill the 1024-entry result cache (each entry keeps an
    # all-n support), so peak memory does not depend on the run's speed.
    "saturated": StaticSpec(
        "arxiv", 1.0, min_answers=1088, gate_sample=64, updates=12, setup_repeats=5
    ),
    "churn": ChurnSpec(churn_scenario(20000, epochs=22)),
}

#: Tiny inputs for the self-test: same code paths, seconds instead of minutes.
TINY = {
    "local": StaticSpec(
        "arxiv", 0.5, min_answers=16, gate_sample=4, updates=2,
        config=LacaConfig(metric="cosine", diffusion="greedy", epsilon=1e-3),
    ),
    "saturated": StaticSpec("arxiv", 0.1, min_answers=16, gate_sample=4, updates=2),
    "churn": ChurnSpec(
        churn_scenario(1000, epochs=8), queries_per_epoch=16, gate_per_epoch=2,
        min_epochs=5,
    ),
}


# ----------------------------------------------------------------------
# Closed loop
# ----------------------------------------------------------------------
@dataclass
class LoopResult:
    answers: list = field(default_factory=list)  # (index, seed, cluster)
    latencies: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Summed over query phases: first submit to last resolution.
    busy_s: float = 0.0

    @property
    def throughput(self) -> float:
        """Answered queries over the wall time of the query phases."""
        return len(self.answers) / self.busy_s


def closed_loop(service, seeds, window, seconds, min_answers, result: LoopResult) -> None:
    """Keep ``window`` queries outstanding until ``seconds`` have passed
    and ``min_answers`` were submitted (or the seeds run out), then drain.

    Latency runs from submit to the moment the future resolves (taken in
    its done-callback); busy time runs from the first submit to the last
    resolution.
    """
    done: queue.SimpleQueue = queue.SimpleQueue()
    start = last = time.perf_counter()
    position = 0
    outstanding = 0

    def submit_next() -> bool:
        nonlocal position, outstanding
        while position < len(seeds):
            index, seed = position, int(seeds[position])
            position += 1
            result.attempted += 1
            sent = time.perf_counter()
            try:
                future = service.submit(seed, CLUSTER_SIZE)
            except Exception:  # shed or rejected at admission
                result.failed += 1
                continue
            future.add_done_callback(
                lambda f, index=index, seed=seed, sent=sent: done.put(
                    (index, seed, sent, time.perf_counter(), f)
                )
            )
            outstanding += 1
            return True
        return False

    for _ in range(window):
        submit_next()
    while outstanding:
        index, seed, sent, resolved, future = done.get()
        outstanding -= 1
        last = max(last, resolved)
        try:
            cluster = future.result()
        except Exception:
            result.failed += 1
        else:
            result.answers.append((index, seed, cluster))
            result.latencies.append(resolved - sent)
        if time.perf_counter() - start < seconds or position < min_answers:
            submit_next()
    result.busy_s += last - start


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def peak_rss_mb(pids=()) -> float:
    """Peak resident memory (VmHWM) of this process plus ``pids``."""
    total_kb = 0
    for pid in ("self", *pids):
        try:
            with open(f"/proc/{pid}/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    if not total_kb:
        import resource

        total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return total_kb / 1024.0


def support_of(result) -> np.ndarray:
    """Nodes either diffusion of one query pushed (non-zero ``q``): the
    nodes whose adjacency rows the query read, Theorem IV.1's volume.

    Nodes that only received residual mass are left out; the program's
    own ``laca_touched_nodes`` counts those too.
    """
    return np.union1d(np.flatnonzero(result.rwr.q), np.flatnonzero(result.bdd.q))


def precision(cluster, truth) -> float:
    return float(np.isin(cluster, truth).mean())


def stats_delta(before: dict, after: dict) -> dict:
    """Serving counters over one phase from two ``stats()`` snapshots."""
    cache_a, cache_b = before.get("cache") or {}, after.get("cache") or {}
    hits = cache_b.get("hits", 0) - cache_a.get("hits", 0)
    misses = cache_b.get("misses", 0) - cache_a.get("misses", 0)
    batches = after["batches"] - before["batches"]
    served = after["engine_served"] - before["engine_served"]
    seeds = [entry["seeds"] for entry in after.get("worker_occupancy", {}).values()]
    return {
        "p50_queue_wait_s": after["p50_queue_wait_s"],
        "p50_collect_s": after["p50_collect_s"],
        "p50_engine_s": after["p50_engine_s"],
        "block_size_mean": served / batches if batches else 0.0,
        "cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "entries_promoted": after["entries_promoted"],
        "entries_invalidated": after["entries_invalidated"],
        "worker_balance": min(seeds) / max(seeds) if seeds and max(seeds) else 1.0,
        "block_retries": after["block_retries"],
        "worker_restarts": after["worker_restarts"],
    }


def kernel_counts(registry) -> dict:
    family = registry.get("laca_kernel_selections_total")
    if family is None:
        return {}
    return {key[0]: float(value) for key, value in family.sample_items().items()}


def _delta(after: dict, before: dict) -> dict:
    return {key: value - before.get(key, 0.0) for key, value in after.items()}


def _warm(service, seeds) -> None:
    for future in service.submit_many(seeds[:2], CLUSTER_SIZE):
        future.result()
    service.cluster(int(seeds[2]), CLUSTER_SIZE)


@dataclass
class Outcome:
    """What one run measured, before it is turned into metrics."""

    header: dict
    loop: LoopResult
    throughput_qps: float
    update_latencies: list
    setup_times: list
    precision: float
    peak_rss_mb: float
    gate_checked: int
    gate_mismatches: int
    touched_fractions: list
    touched_volumes: list
    layer_ctx: dict | None = None
    #: Blocks the pool re-dispatched after losing a worker.
    block_retries: int = 0


# ----------------------------------------------------------------------
# Static graphs: `local` and `saturated`
# ----------------------------------------------------------------------
def synthetic_deltas(graph, count: int, rng, edges: int = 16, rows: int = 8) -> list:
    """Small seeded deltas for the static graphs: intra-community edge
    insertions plus attribute rows redrawn from a community peer."""
    communities = np.asarray(graph.communities)
    deltas = []
    for _ in range(count):
        pairs = []
        for u in rng.choice(graph.n, size=edges, replace=False):
            peers = np.flatnonzero(communities == communities[u])
            v = int(rng.choice(peers))
            if v != int(u):
                pairs.append((int(u), v))
        nodes = rng.choice(graph.n, size=rows, replace=False)
        donors = [
            int(rng.choice(np.flatnonzero(communities == communities[node])))
            for node in nodes
        ]
        deltas.append(
            GraphDelta(
                add_edges=np.asarray(pairs, dtype=np.int64).reshape(-1, 2),
                set_attributes=(nodes, graph.attributes[donors]),
            )
        )
    return deltas


def _static_setup(spec: StaticSpec, tracer: Tracer | None):
    start = time.perf_counter()
    with tracer.timed("graphs.build") if tracer is not None else nullcontext():
        graph = load_dataset(spec.dataset, scale=spec.scale, cache=False)
    model = LACA(spec.config).fit(graph)
    service = ClusterService(model)
    return time.perf_counter() - start, graph, model, service


def _timed_update(service, delta, tracer: Tracer | None) -> float:
    if tracer is not None:
        tracer.phase = "update"
    started = time.perf_counter()
    service.apply_update(delta)
    return time.perf_counter() - started


def _gate(fresh, graph, answers, picks, corrupt: bool = False):
    """Compare sampled served answers bitwise with ``fresh.cluster``.

    Returns the mismatch count and, for the regime guard, each sampled
    query's touched fraction and touched volume on ``graph``.
    ``corrupt`` alters the first sampled answer, so the self-test can
    check that a wrong answer is caught.
    """
    mismatches, fractions, volumes = 0, [], []
    for position, pick in enumerate(sorted(picks)):
        s, cluster = answers[pick]
        if corrupt and position == 0:
            cluster = (np.asarray(cluster) + 1) % graph.n
        if not np.array_equal(cluster, fresh.cluster(s, CLUSTER_SIZE)):
            mismatches += 1
        support = support_of(fresh.scores(s))
        fractions.append(support.size / graph.n)
        volumes.append(float(graph.degrees[support].sum()))
    return mismatches, fractions, volumes


def run_static(
    spec: StaticSpec, seed: int, seconds: float, tracer: Tracer | None, corrupt: bool
) -> Outcome:
    rng = np.random.default_rng(seed)
    gate_rng = np.random.default_rng([seed, 1])
    if tracer is not None:
        tracer.enable()
    setup_s, graph, model, service = _static_setup(spec, tracer)
    if tracer is not None:
        tracer.disable()
    setup_times = [setup_s]
    order = rng.permutation(graph.n)
    deltas = synthetic_deltas(graph, spec.updates, rng)
    loop = LoopResult()
    layer_ctx = None
    try:
        _warm(service, order[-3:])
        if tracer is None:
            closed_loop(service, order, spec.window, seconds, spec.min_answers, loop)
            throughput = loop.throughput
        else:
            throughput, layer_ctx = _traced_static(
                spec, service, model, order, seconds, loop, tracer
            )
            tracer.enable()
        update_latencies = [_timed_update(service, delta, tracer) for delta in deltas]
        # Read before the repeat set-ups, so the peak is the served phase's.
        rss = peak_rss_mb()
        if tracer is not None:
            tracer.disable()
            final = service.stats()
            for key in ("entries_promoted", "entries_invalidated"):
                layer_ctx["stats"][key] = final[key]
    finally:
        service.close()
    service = model = fresh = None
    for _ in range(spec.setup_repeats - 1 if tracer is None else 0):
        graph = fresh = None
        gc.collect()
        setup_s, graph, fresh, service = _static_setup(spec, None)
        service.close()
        service = None
        setup_times.append(setup_s)
    if fresh is None:
        fresh = LACA(spec.config).fit(graph)
    first = [(s, cluster) for _, s, cluster in sorted(loop.answers)[: spec.min_answers]]
    precisions = [precision(cluster, graph.ground_truth_cluster(s)) for s, cluster in first]
    picks = gate_rng.choice(len(first), size=min(spec.gate_sample, len(first)), replace=False)
    mismatches, fractions, volumes = _gate(fresh, graph, first, picks, corrupt)
    return Outcome(
        header={"n": graph.n, "nnz": int(graph.adjacency.nnz)},
        loop=loop,
        throughput_qps=throughput,
        update_latencies=update_latencies,
        setup_times=setup_times,
        precision=float(np.mean(precisions)),
        peak_rss_mb=rss,
        gate_checked=len(picks),
        gate_mismatches=mismatches,
        touched_fractions=fractions,
        touched_volumes=volumes,
        layer_ctx=layer_ctx,
    )


def _traced_static(spec, service, model, order, seconds, loop, tracer):
    """An untraced and a traced served phase, then the raw engine loop.

    Both served phases walk the same seed order, so no seed repeats; the
    untraced phase's answers come first in ``loop`` because precision and
    the gate read the first answers.
    """
    registry = service.telemetry.registry
    tracer.phase = "served"
    closed_loop(service, order, spec.window, seconds, spec.min_answers, loop)
    untraced_qps = loop.throughput
    offset = loop.attempted
    rest = order[offset:]
    traced = LoopResult()
    before, kernels_before = service.stats(), kernel_counts(registry)
    tracer.enable()
    closed_loop(service, rest, spec.window, seconds, spec.min_answers, traced)
    tracer.disable()
    after = service.stats()
    loop.answers += [(index + offset, s, c) for index, s, c in traced.answers]
    loop.latencies += traced.latencies
    loop.attempted += traced.attempted
    loop.failed += traced.failed
    ctx = {
        "registry": registry,
        "served_answered": len(traced.answers),
        "untraced_qps": untraced_qps,
        "traced_qps": traced.throughput,
        "raw_qps": _raw_loop(model, rest[: traced.attempted], seconds / 2, tracer),
        "kernel_counts": _delta(kernel_counts(registry), kernels_before),
        "stats": stats_delta(before, after),
    }
    return untraced_qps, ctx


def _raw_loop(model, seeds, seconds, tracer, traced_queries: int = 32) -> float:
    """The same seeds through ``model.cluster`` with no service: an
    untraced timed loop for the rate, then a short traced one for spans."""
    workspace = model.make_workspace()
    seeds = [int(s) for s in seeds]
    count, start = 0, time.perf_counter()
    while count < len(seeds) and (count < 8 or time.perf_counter() - start < seconds):
        model.cluster(seeds[count], CLUSTER_SIZE, workspace=workspace)
        count += 1
    rate = count / (time.perf_counter() - start)
    tracer.phase = "raw"
    tracer.enable()
    for s in seeds[:traced_queries]:
        model.cluster(s, CLUSTER_SIZE, workspace=workspace)
    tracer.disable()
    return rate


# ----------------------------------------------------------------------
# Dynamic graph through the pool: `churn`
# ----------------------------------------------------------------------
def _churn_setup(spec: ChurnSpec, epochs: int, tracer: Tracer | None):
    start = time.perf_counter()
    with tracer.timed("graphs.build") if tracer is not None else nullcontext():
        scenario = generate_dynamic_sbm(
            replace(spec.scenario, epochs=epochs), seed=SCENARIO_SEED
        )
    model = LACA(spec.config).fit(scenario.base)
    store = GraphStore(scenario.base, history=epochs + 1)
    service = PoolClusterService(
        model, workers=spec.workers, cache_size=spec.cache_size, store=store
    )
    return time.perf_counter() - start, scenario, service


def run_churn(
    spec: ChurnSpec, seed: int, seconds: float, tracer: Tracer | None, corrupt: bool
) -> Outcome:
    """Epochs of Zipf-seeded queries, each drained before the epoch's
    delta is applied; update time is kept out of the query busy time.

    A traced run serves an untraced half and then a traced half of at
    least ``seconds`` each, so its scenario has twice the epochs.
    """
    rng = np.random.default_rng(seed)
    gate_rng = np.random.default_rng([seed, 1])
    epochs = spec.scenario.epochs * (2 if tracer is not None else 1)
    if tracer is not None:
        tracer.enable()
    setup_s, scenario, service = _churn_setup(spec, epochs, tracer)
    if tracer is not None:
        tracer.disable()
    setup_times = [setup_s]
    registry = service.telemetry.registry
    model = service.model
    loop = LoopResult()
    served: list = []  # (epoch, seed, cluster) in submission order
    update_latencies: list = []
    halves = [LoopResult(), LoopResult()]
    half = 0
    try:
        _warm(service, scenario.community_nodes(0)[:3])
        started = time.perf_counter()
        for epoch in range(epochs + 1):
            elapsed = time.perf_counter() - started
            if tracer is not None and half == 0 and epoch >= spec.min_epochs and (
                elapsed >= seconds or epoch >= epochs // 2
            ):
                half, started = 1, time.perf_counter()
                before, kernels_before = service.stats(), kernel_counts(registry)
                tracer.enable()
            seeds = sample_seeds_zipf(
                scenario.community_nodes(epoch), spec.queries_per_epoch, spec.zipf, rng
            )
            if tracer is not None:
                tracer.phase = "served"
            part = halves[half]
            answered = len(part.answers)
            closed_loop(service, seeds, spec.window, math.inf, len(seeds), part)
            served += [(epoch, s, c) for _, s, c in sorted(part.answers[answered:])]
            finished = epoch + 1 >= spec.min_epochs and (
                time.perf_counter() - started >= seconds
            )
            if epoch == epochs or (finished and (tracer is None or half == 1)):
                break
            update_latencies.append(
                _timed_update(service, scenario.records[epoch].delta, tracer)
            )
        rss = peak_rss_mb([proc.pid for proc in service._procs])
        after = service.stats()
        if tracer is not None:
            tracer.disable()
    finally:
        service.close()
    for part in halves:
        loop.latencies += part.latencies
        loop.attempted += part.attempted
        loop.failed += part.failed
    loop.answers = [(i, s, c) for i, (_, s, c) in enumerate(served)]
    throughput = halves[0].throughput
    layer_ctx = None
    if tracer is not None:
        traced = halves[1]
        stats = stats_delta(before, after)
        layer_ctx = {
            "registry": registry,
            "served_answered": len(traced.answers),
            "untraced_qps": throughput,
            "traced_qps": traced.throughput,
            # The parent's model was refreshed to the last served epoch.
            "raw_qps": _raw_loop(
                model, [s for _, s, _ in traced.answers], seconds / 2, tracer
            ),
            "kernel_counts": _delta(kernel_counts(registry), kernels_before),
            "stats": stats,
        }
    del service, model
    gc.collect()
    for _ in range(spec.setup_repeats - 1 if tracer is None else 0):
        setup_s, _, extra = _churn_setup(spec, epochs, None)
        extra.close()
        setup_times.append(setup_s)

    by_epoch: dict[int, list] = {}
    for epoch, s, cluster in served:
        by_epoch.setdefault(epoch, []).append((s, cluster))
    precisions = [
        precision(cluster, scenario.ground_truth(epoch, s))
        for epoch in range(spec.min_epochs)
        for s, cluster in by_epoch[epoch]
    ]
    checked = mismatches = 0
    fractions, volumes = [], []
    for epoch in spec.gate_epochs:
        answers = by_epoch[epoch]
        graph = scenario.graph_at(epoch)
        picks = gate_rng.choice(
            len(answers), size=min(spec.gate_per_epoch, len(answers)), replace=False
        )
        missed, fraction, volume = _gate(
            LACA(spec.config).fit(graph), graph, answers, picks, corrupt and not checked
        )
        checked += len(picks)
        mismatches += missed
        fractions += fraction
        volumes += volume
    return Outcome(
        header={"n": scenario.base.n, "nnz": int(scenario.base.adjacency.nnz)},
        loop=loop,
        throughput_qps=throughput,
        update_latencies=update_latencies,
        setup_times=setup_times,
        precision=float(np.mean(precisions)),
        peak_rss_mb=rss,
        gate_checked=checked,
        gate_mismatches=mismatches,
        touched_fractions=fractions,
        touched_volumes=volumes,
        layer_ctx=layer_ctx,
        block_retries=after["block_retries"],
    )


def run(
    name: str,
    seed: int,
    seconds: float,
    tracer: Tracer | None,
    tiny: bool = False,
    corrupt: bool = False,
) -> Outcome:
    spec = (TINY if tiny else WORKLOADS)[name]
    runner = run_churn if isinstance(spec, ChurnSpec) else run_static
    return runner(spec, seed, seconds, tracer, corrupt)


def stop_children() -> None:
    """Stop and reap every process this run started.

    ``PoolClusterService.close`` joins its workers; this also catches any
    a failed run left behind, and the ``multiprocessing`` resource tracker
    that publishing shared-memory segments starts, which would otherwise
    outlive the benchmark until it notices its parent has gone.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_fd", None) is not None:
        tracker._stop()


def host_header() -> dict:
    import platform

    import scipy

    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "loadavg_1m": os.getloadavg()[0],
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
    }
