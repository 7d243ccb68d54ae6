"""Command-line interface: cluster around a seed from the shell.

Examples
--------
List datasets and methods::

    python -m repro datasets
    python -m repro methods

Cluster with LACA on a registered dataset::

    python -m repro cluster --dataset cora --seed 42
    python -m repro cluster --dataset yelp --seed 7 --method "SimAttr (C)"

Answer many seeds in one batched query (routed: sequential while the
queries stay local, one block diffusion once they saturate)::

    python -m repro cluster --dataset cora --seed 3 14 159 --batch

Cluster on your own saved graph (see ``repro.graphs.io``)::

    python -m repro cluster --graph mygraph.npz --seed 0 --size 50

Serve seed queries through the micro-batching scheduler, one JSON result
per line (queries are ``seed [size]`` lines on stdin or in a file)::

    python -m repro serve --dataset cora --queries queries.txt
    echo "42" | python -m repro serve --dataset cora --stats
    python -m repro serve --graph g.npz --model m.npz --size 50

Fan the same queries out to a process pool over a shared-memory graph
(``--max-pending``/``--deadline-ms`` bound what the service will buffer,
with or without ``--workers``)::

    python -m repro serve --dataset cora --workers 4 --queries queries.txt
    python -m repro serve --dataset cora --workers 4 --max-pending 4096 \
        --deadline-ms 500 --stats

Observe a serving run: Prometheus-style ``/metrics`` plus JSON
``/stats`` on a localhost sidecar, and JSONL request traces::

    python -m repro serve --dataset cora --metrics-port 9100 \
        --trace-log traces.jsonl --stats
    curl -s localhost:9100/metrics | grep laca_stage_seconds

Apply a stream of graph deltas (one JSON object per line) to a saved
graph, producing the next epoch-stamped snapshot — optionally carrying a
fitted model along incrementally instead of refitting::

    python -m repro update --graph g.npz --updates deltas.jsonl --out g2.npz
    python -m repro update --graph g.npz --updates - --out g2.npz \
        --model m.npz --save-model m2.npz

Replay a temporal community-tracking scenario against the serving
layer — a seeded dynamic SBM with planted *evolving* communities (or an
Enron-style ``u v t`` timestamped edge file), interleaving graph deltas
with Zipf-bursty query traffic and reporting per-epoch tracking
recall, cluster stability, cache churn, and latency percentiles::

    python -m repro replay --epochs 20 --n 2000 --queries-per-epoch 256
    python -m repro replay --workers 2 --verify-every 5 --report out.json
    python -m repro replay --edges-file enron.txt --epochs 12 --mode open
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time

import numpy as np

from .baselines.base import LocalClusteringMethod
from .baselines.registry import make_method, method_names
from .core.laca import top_k_cluster
from .eval.metrics import conductance, precision, recall
from .graphs.datasets import dataset_names, dataset_statistics, load_dataset
from .graphs.io import load_graph

__all__ = ["main"]


def _cmd_datasets(_args) -> int:
    from .eval.reporting import format_table

    print(format_table(dataset_statistics(), title="Registered datasets"))
    return 0


def _cmd_methods(_args) -> int:
    for name in method_names():
        method = make_method(name)
        print(f"{name:22s} [{method.category}]")
    return 0


def _load_cli_graph(args):
    if args.graph:
        return load_graph(args.graph)
    if args.dataset:
        return load_dataset(args.dataset, scale=args.scale)
    raise SystemExit("provide --dataset <name> or --graph <path.npz>")


def _cmd_cluster(args) -> int:
    graph = _load_cli_graph(args)

    seeds = args.seed
    if len(seeds) > 1 or args.batch:
        return _cluster_batch(graph, seeds, args)

    seed = seeds[0]
    size = args.size
    truth = None
    if size is None:
        if graph.communities is None:
            raise SystemExit("--size is required for graphs without ground truth")
        truth = graph.ground_truth_cluster(seed)
        size = truth.shape[0]
    elif graph.communities is not None:
        truth = graph.ground_truth_cluster(seed)

    method = make_method(args.method).fit(graph)
    if args.json:
        truths = {seed: truth} if truth is not None else {}
        record, = _json_records(graph, method, [seed], [size], truths)
        print(json.dumps(record))
        return 0
    cluster = method.cluster(seed, size)

    print(f"graph: {graph.name} (n={graph.n}, m={graph.m}, d={graph.d})")
    print(f"method: {args.method}, seed: {seed}, cluster size: {size}")
    print(f"conductance: {conductance(graph, cluster):.4f}")
    if truth is not None:
        print(f"precision: {precision(cluster, truth):.4f}")
        print(f"recall:    {recall(cluster, truth):.4f}")
    shown = ", ".join(str(int(node)) for node in cluster[: args.show])
    suffix = " ..." if cluster.shape[0] > args.show else ""
    print(f"members: {shown}{suffix}")
    return 0


def _json_records(graph, method, seeds, sizes, truths) -> list[dict]:
    """Machine-readable result rows (the ``--json`` output format).

    Ranking methods derive members *and* member scores from a single
    (batched) scoring pass; methods that override ``cluster`` with a
    non-ranking extraction keep their extraction and pay one extra
    scoring pass, outside the timed window, for the score report.  The
    timed window is split evenly over seeds, the harness's batched
    convention.
    """
    ranked = type(method).cluster is LocalClusteringMethod.cluster
    start = time.perf_counter()
    if ranked:
        vectors = method.score_vector_batch(seeds)
        clusters = [
            top_k_cluster(vector, size, seed)
            for vector, seed, size in zip(vectors, seeds, sizes)
        ]
    else:
        clusters = method.cluster_batch(seeds, sizes)
    per_seed = (time.perf_counter() - start) / len(seeds)
    if not ranked:
        vectors = method.score_vector_batch(seeds)
    records = []
    for seed, size, cluster, vector in zip(seeds, sizes, clusters, vectors):
        record = {
            "graph": graph.name,
            "method": method.name,
            "seed": int(seed),
            "size": int(size),
            "members": [int(node) for node in cluster],
            "scores": [float(score) for score in vector[cluster]],
            "conductance": conductance(graph, cluster),
            "online_s": round(per_seed, 6),
        }
        truth = truths.get(seed)
        if truth is not None:
            record["precision"] = precision(cluster, truth)
            record["recall"] = recall(cluster, truth)
        records.append(record)
    return records


def _cluster_batch(graph, seeds: list[int], args) -> int:
    """Answer several seeds in one batched query and print a summary."""
    truths = {}
    if graph.communities is not None:
        truths = {seed: graph.ground_truth_cluster(seed) for seed in seeds}
    if args.size is None:
        if not truths:
            raise SystemExit("--size is required for graphs without ground truth")
        sizes = [truths[seed].shape[0] for seed in seeds]
    else:
        sizes = [args.size] * len(seeds)

    method = make_method(args.method).fit(graph)
    if args.json:
        for record in _json_records(graph, method, seeds, sizes, truths):
            print(json.dumps(record))
        return 0
    start = time.perf_counter()
    clusters = method.cluster_batch(seeds, sizes)
    elapsed = time.perf_counter() - start

    print(f"graph: {graph.name} (n={graph.n}, m={graph.m}, d={graph.d})")
    plural = "s" if len(seeds) != 1 else ""
    print(f"method: {args.method}, batched query over {len(seeds)} seed{plural}")
    for seed, size, cluster in zip(seeds, sizes, clusters):
        line = f"seed {seed:>6d}  size {size:>5d}  conductance {conductance(graph, cluster):.4f}"
        if seed in truths:
            line += (
                f"  precision {precision(cluster, truths[seed]):.4f}"
                f"  recall {recall(cluster, truths[seed]):.4f}"
            )
        print(line)
        if args.show > 0:
            shown = ", ".join(str(int(node)) for node in cluster[: args.show])
            suffix = " ..." if cluster.shape[0] > args.show else ""
            print(f"        members: {shown}{suffix}")
    rate = len(seeds) / elapsed if elapsed > 0 else float("inf")
    print(f"online: {elapsed:.4f}s total, throughput {rate:.1f} seeds/s")
    return 0


def _read_queries(source, default_size, graph):
    """Parse ``seed [size]`` lines into (seed, size) pairs.

    Blank lines and ``#`` comments are skipped.  A line without a size
    falls back to ``--size``, then to the seed's ground-truth cluster
    size when the graph carries communities.
    """
    pairs: list[tuple[int, int]] = []
    for lineno, line in enumerate(source, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        parts = text.split()
        if len(parts) > 2:
            raise SystemExit(f"query line {lineno}: expected 'seed [size]', got {text!r}")
        try:
            seed = int(parts[0])
            size = int(parts[1]) if len(parts) == 2 else default_size
        except ValueError:
            raise SystemExit(
                f"query line {lineno}: expected 'seed [size]', got {text!r}"
            ) from None
        if not 0 <= seed < graph.n:
            raise SystemExit(
                f"query line {lineno}: seed {seed} out of range for n={graph.n}"
            )
        if size is not None and size <= 0:
            raise SystemExit(
                f"query line {lineno}: cluster size must be positive, got {size}"
            )
        if size is None:
            if graph.communities is None:
                raise SystemExit(
                    f"query line {lineno}: no size given and the graph has no "
                    "ground truth — pass --size or 'seed size' lines"
                )
            size = int(graph.ground_truth_cluster(seed).shape[0])
        pairs.append((seed, size))
    return pairs


def _cmd_serve(args) -> int:
    from .core.pipeline import LACA
    from .obs import MetricsServer, TraceLog
    from .serving import ClusterService, load_model, save_model
    from .testing import FaultPlan

    graph = _load_cli_graph(args)
    if args.model:
        model = load_model(args.model, graph)
    else:
        model = LACA(metric=args.metric).fit(graph)
        print(
            f"fitted {model.describe()} on {graph.name} "
            f"in {model.preprocessing_seconds:.3f}s",
            file=sys.stderr,
        )
    if args.save_model:
        path = save_model(model, args.save_model)
        print(f"saved model to {path}", file=sys.stderr)

    if args.queries and args.queries != "-":
        try:
            handle = open(args.queries, encoding="utf-8")
        except OSError as error:
            raise SystemExit(f"cannot read queries file: {error}") from None
        with handle:
            pairs = _read_queries(handle, args.size, graph)
    else:
        pairs = _read_queries(sys.stdin, args.size, graph)
    if not pairs:
        print("no queries", file=sys.stderr)
        return 0

    # The service does not own the trace log (several services could
    # share one), so the CLI closes it after the service drains.
    trace_log = None
    if args.trace_log:
        trace_log = TraceLog(args.trace_log, sample_rate=args.trace_sample)

    # Durable updates: back the service's store with a write-ahead log
    # so every delta applied while serving survives a crash
    # (GraphStore.recover replays it bitwise on restart).
    store = None
    if args.wal:
        from .graphs.store import GraphStore
        from .graphs.wal import GraphWAL

        store = GraphStore(model._require_fit(), wal=GraphWAL(args.wal))

    # Deterministic chaos testing: REPRO_FAULTS carries a JSON fault
    # plan (see repro.testing.faults) into the workers and pool thread.
    fault_plan = FaultPlan.from_env()

    service_ctx = ClusterService(
        model,
        workers=args.workers,
        max_pending=args.max_pending,
        deadline_s=args.deadline_ms / 1000.0 if args.deadline_ms else None,
        max_retries=args.max_retries,
        restart_budget=args.restart_budget,
        fallback_inprocess=args.fallback_inprocess,
        fault_plan=fault_plan,
        max_batch=args.max_batch,
        max_wait_s=args.max_wait_ms / 1000.0,
        cache_size=args.cache_size,
        trace_log=trace_log,
        store=store,
    )
    metrics_server = None
    # SIGTERM unwinds the main thread as SystemExit, so the ``with``
    # below closes the pool and unlinks its shared-memory segments.
    previous_sigterm = signal.signal(signal.SIGTERM, _exit_on_signal)
    try:
        with service_ctx as service:
            if args.metrics_port is not None:
                metrics_server = MetricsServer(
                    service.telemetry.registry,
                    port=args.metrics_port,
                    stats_fn=service.stats,
                )
                metrics_server.start()
                # Printed to stderr so --metrics-port 0 (ephemeral) is
                # scriptable: parse this line to find the bound port.
                print(
                    f"metrics server listening on {metrics_server.url}",
                    file=sys.stderr,
                )
            # Submit everything up front so concurrent queries coalesce
            # into blocks, then stream results back in input order.
            submitted = [
                (seed, size, time.perf_counter(), service.submit(seed, size))
                for seed, size in pairs
            ]
            for seed, size, submitted_at, future in submitted:
                cluster = future.result()
                latency = time.perf_counter() - submitted_at
                print(json.dumps({
                    "seed": int(seed),
                    "size": int(size),
                    "members": [int(node) for node in cluster],
                    "conductance": conductance(graph, cluster),
                    "latency_s": round(latency, 6),
                    "trace_id": getattr(future, "trace_id", None),
                }), flush=True)
            if args.stats:
                print(json.dumps(service.stats()), file=sys.stderr)
            if args.linger_s > 0:
                # Keep the service (and /metrics) up after the drain so
                # an external scraper can collect final counters.
                time.sleep(args.linger_s)
    finally:
        signal.signal(signal.SIGTERM, previous_sigterm)
        if metrics_server is not None:
            metrics_server.close()
        if trace_log is not None:
            trace_log.close()
    return 0


def _exit_on_signal(signum, _frame) -> None:
    # A close that cannot finish (a wedged pool) must not make serve
    # unkillable: a second SIGTERM takes the default action.
    signal.signal(signum, signal.SIG_DFL)
    raise SystemExit(128 + signum)


def _cmd_update(args) -> int:
    """Apply a JSONL delta stream through a :class:`GraphStore`.

    Each input line is one :meth:`GraphDelta.from_mapping` object, e.g.::

        {"add_edges": [[0, 42]], "remove_edges": [[3, 17]]}
        {"add_nodes": 1, "add_edges": [[8000, 5]],
         "add_attributes": [[0.1, 0.9, ...]], "add_communities": [2]}
        {"set_attributes": {"17": [0.2, 0.8, ...]}}

    One JSON status line is printed per applied delta.  With ``--model``
    the fitted model is refreshed incrementally across the whole stream
    (never refitted unless the deltas force it) and written back with
    ``--save-model``.
    """
    from .graphs.io import save_graph
    from .graphs.store import GraphDelta, GraphStore

    if not args.graph:
        raise SystemExit("update requires --graph <path.npz>")
    graph = load_graph(args.graph)

    model = None
    if args.model:
        from .serving import load_model

        model = load_model(args.model, graph)

    if args.updates and args.updates != "-":
        try:
            handle = open(args.updates, encoding="utf-8")
        except OSError as error:
            raise SystemExit(f"cannot read updates file: {error}") from None
    else:
        handle = sys.stdin

    # History must cover the whole stream so a trailing model refresh
    # still knows exactly which attribute rows changed.
    deltas: list = []
    with handle:
        for lineno, line in enumerate(handle, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            try:
                payload = json.loads(text)
                deltas.append(GraphDelta.from_mapping(payload))
            except (ValueError, TypeError) as error:
                raise SystemExit(f"updates line {lineno}: {error}") from None
    history = max(len(deltas), 1)
    if args.wal:
        # Crash recovery first: replay whatever an earlier (possibly
        # interrupted) run already logged, then append the new stream.
        from .graphs.wal import WalCorruption

        try:
            store = GraphStore.recover(graph, args.wal, history=history)
        except WalCorruption as error:
            raise SystemExit(f"write-ahead log {args.wal}: {error}") from None
        if store.epoch > graph.epoch:
            print(
                f"recovered epochs {graph.epoch + 1}..{store.epoch} "
                f"from {args.wal}",
                file=sys.stderr,
            )
    else:
        store = GraphStore(graph, history=history)

    for delta in deltas:
        n_before = store.head.n  # touched_nodes works in pre-delta ids
        start = time.perf_counter()
        try:
            head = store.apply(delta)
        except ValueError as error:
            raise SystemExit(f"delta at epoch {store.epoch + 1}: {error}") from None
        print(json.dumps({
            "epoch": head.epoch,
            "n": head.n,
            "m": head.m,
            "touched": int(delta.touched_nodes(n_before).shape[0]),
            "apply_ms": round((time.perf_counter() - start) * 1e3, 3),
        }), flush=True)

    if model is not None:
        model.refresh(store)
        print(
            f"refreshed model to epoch {store.epoch} "
            f"in {model.refresh_seconds * 1e3:.3f}ms",
            file=sys.stderr,
        )
    if args.save_model:
        if model is None:
            raise SystemExit("--save-model requires --model")
        from .serving import save_model

        path = save_model(model, args.save_model)
        print(f"saved model to {path}", file=sys.stderr)
    if args.out:
        path = save_graph(store.head, args.out)
        print(f"saved graph (epoch {store.epoch}) to {path}", file=sys.stderr)
    return 0


def _cmd_replay(args) -> int:
    """Replay an evolving-community scenario against the serving layer.

    Generates a seeded dynamic SBM (or lifts an ``u v t`` timestamped
    edge file into a delta stream), fits LACA on the base snapshot, and
    drives a ``ClusterService`` — with ``--workers N``, over N worker
    processes — through the mixed read/write trace.  One JSON line per epoch
    plus a trace-wide summary; ``--report`` writes everything to a file.
    """
    from .core.pipeline import LACA
    from .graphs.store import GraphStore
    from .scenarios import (
        DynamicSBMConfig,
        EventStreamScenario,
        ReplayConfig,
        generate_dynamic_sbm,
        parse_timestamped_edges,
        replay,
    )
    from .serving import ClusterService

    if args.edges_file:
        with open(args.edges_file, encoding="utf-8") as handle:
            events = parse_timestamped_edges(handle)
        scenario = EventStreamScenario.from_timestamped_edges(
            events, windows=args.epochs + 1, base_windows=1
        )
        if args.verify_every:
            raise SystemExit(
                "--verify-every needs a generated scenario (no from-scratch "
                "snapshot exists for a timestamped stream)"
            )
    else:
        config = DynamicSBMConfig(
            n=args.n,
            n_communities=args.communities,
            avg_degree=args.avg_degree,
            mixing=args.mixing,
            d=args.d,
            epochs=args.epochs,
            churn_fraction=args.churn,
            birth_fraction=args.births,
            death_fraction=args.deaths,
            drift_fraction=args.drift,
            merge_epochs=tuple(args.merge_at or ()),
            split_epochs=tuple(args.split_at or ()),
        )
        scenario = generate_dynamic_sbm(config, seed=args.scenario_seed)

    model = LACA(metric=args.metric).fit(scenario.base)
    print(
        f"fitted {model.describe()} on {scenario.base.name} "
        f"(n={scenario.base.n}, m={scenario.base.m}, "
        f"{scenario.epochs} epochs queued)",
        file=sys.stderr,
    )

    store = GraphStore(scenario.base, history=max(64, scenario.epochs + 1))
    service_ctx = ClusterService(
        model,
        workers=args.workers,
        max_batch=args.max_batch,
        cache_size=args.cache_size,
        store=store,
    )

    replay_config = ReplayConfig(
        queries_per_epoch=args.queries_per_epoch,
        size=args.size,
        zipf_exponent=args.zipf,
        mode=args.mode,
        rate_qps=args.rate_qps,
        seed=args.replay_seed,
        track_seeds=args.track_seeds,
        verify_every=args.verify_every,
    )
    with service_ctx as service:
        result = replay(service, scenario, replay_config)
        stats = service.stats() if args.stats else None

    for report in result.epochs:
        print(json.dumps(report), flush=True)
    summary = result.summary()
    print(json.dumps({"summary": summary}), flush=True)
    if stats is not None:
        print(json.dumps(stats), file=sys.stderr)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(
                {"epochs": result.epochs, "summary": summary},
                handle,
                indent=2,
            )
        print(f"wrote report to {args.report}", file=sys.stderr)
    if summary["all_verified_bitwise"] is False:
        print("BITWISE VERIFICATION FAILED", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro", description="LACA local clustering CLI"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("datasets", help="list registered datasets")
    commands.add_parser("methods", help="list available methods")

    cluster = commands.add_parser("cluster", help="cluster around a seed")
    cluster.add_argument("--dataset", choices=dataset_names(), default=None)
    cluster.add_argument("--graph", default=None, help="path to a saved .npz graph")
    cluster.add_argument("--scale", type=float, default=1.0)
    cluster.add_argument(
        "--seed", type=int, nargs="+", required=True,
        help="seed node(s); several seeds are answered as one batch",
    )
    cluster.add_argument("--size", type=int, default=None)
    cluster.add_argument("--method", default="LACA (C)", choices=method_names())
    cluster.add_argument("--show", type=int, default=20, help="members to print")
    cluster.add_argument(
        "--batch", action="store_true",
        help="use the batched query path even for a single seed",
    )
    cluster.add_argument(
        "--json", action="store_true",
        help="emit one machine-readable JSON result per seed",
    )

    serve = commands.add_parser(
        "serve", help="answer seed queries through the micro-batching service"
    )
    serve.add_argument("--dataset", choices=dataset_names(), default=None)
    serve.add_argument("--graph", default=None, help="path to a saved .npz graph")
    serve.add_argument("--scale", type=float, default=1.0)
    serve.add_argument(
        "--model", default=None,
        help="saved model archive (see repro.serving.save_model); "
        "fits a fresh LACA when omitted",
    )
    serve.add_argument(
        "--save-model", default=None, metavar="PATH",
        help="persist the served model for future --model runs",
    )
    serve.add_argument("--metric", choices=["cosine", "exp_cosine"],
                       default="cosine", help="SNAS metric for a fresh fit")
    serve.add_argument(
        "--queries", default=None, metavar="FILE",
        help="file of 'seed [size]' lines ('-' or omitted reads stdin)",
    )
    serve.add_argument("--size", type=int, default=None,
                       help="default cluster size for queries without one")
    serve.add_argument("--max-batch", type=int, default=64)
    serve.add_argument("--max-wait-ms", type=float, default=2.0,
                       help="coalescing window per dispatched block")
    serve.add_argument("--cache-size", type=int, default=1024,
                       help="result-cache capacity (0 disables)")
    serve.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="serve through N worker processes sharing the graph via "
        "shared memory (0 = answer in this process)",
    )
    serve.add_argument(
        "--max-pending", type=int, default=None, metavar="N",
        help="admission bound: shed submissions beyond N pending "
        "requests (default: unbounded)",
    )
    serve.add_argument(
        "--deadline-ms", type=float, default=None, metavar="MS",
        help="per-request deadline: drop requests still queued after "
        "MS milliseconds (default: no deadline)",
    )
    serve.add_argument(
        "--max-retries", type=int, default=2, metavar="N",
        help="for --workers: times a request lost to a worker death is "
        "re-dispatched before failing (default: 2)",
    )
    serve.add_argument(
        "--restart-budget", type=int, default=3, metavar="N",
        help="for --workers: respawns each worker slot gets per sliding "
        "window before staying dead (default: 3; 0 disables respawns)",
    )
    serve.add_argument(
        "--fallback-inprocess", action="store_true",
        help="for --workers: degrade to in-process answering instead of "
        "failing when every worker is dead",
    )
    serve.add_argument(
        "--wal", default=None, metavar="PATH",
        help="append every applied graph delta to a crash-recoverable "
        "write-ahead log at PATH (see also 'update --wal')",
    )
    serve.add_argument("--stats", action="store_true",
                       help="print service telemetry to stderr at the end")
    serve.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help="expose /metrics (Prometheus text) and /stats (JSON) on "
        "127.0.0.1:PORT (0 picks an ephemeral port, printed to stderr)",
    )
    serve.add_argument(
        "--trace-log", default=None, metavar="PATH",
        help="append JSONL trace events (request spans, epoch advances, "
        "worker deaths) to PATH",
    )
    serve.add_argument(
        "--trace-sample", type=float, default=1.0, metavar="RATE",
        help="fraction of request spans written to --trace-log "
        "(lifecycle events are always written; default: 1.0)",
    )
    serve.add_argument(
        "--linger-s", type=float, default=0.0, metavar="S",
        help="keep the service and metrics endpoint alive S seconds "
        "after the last answer (for external scrapers)",
    )

    update = commands.add_parser(
        "update", help="apply a JSONL delta stream to a saved graph"
    )
    update.add_argument("--graph", required=True,
                        help="path to a saved .npz graph (the base snapshot)")
    update.add_argument(
        "--updates", default=None, metavar="FILE",
        help="JSONL file of GraphDelta objects ('-' or omitted reads stdin)",
    )
    update.add_argument("--out", default=None, metavar="PATH",
                        help="write the final snapshot to this .npz path")
    update.add_argument(
        "--model", default=None,
        help="fitted model archive to refresh incrementally across the stream",
    )
    update.add_argument(
        "--save-model", default=None, metavar="PATH",
        help="persist the refreshed model (requires --model)",
    )
    update.add_argument(
        "--wal", default=None, metavar="PATH",
        help="durable write-ahead log: replay any deltas already in PATH "
        "first (crash recovery), then append the new stream to it",
    )

    rep = commands.add_parser(
        "replay",
        help="replay an evolving-community scenario with mixed "
        "read/write traffic against the serving layer",
    )
    rep.add_argument("--epochs", type=int, default=20,
                     help="delta-stream length (scenario epochs)")
    rep.add_argument("--n", type=int, default=1200,
                     help="base-graph size of the generated dynamic SBM")
    rep.add_argument("--communities", type=int, default=8)
    rep.add_argument("--avg-degree", type=float, default=8.0)
    rep.add_argument("--mixing", type=float, default=0.12)
    rep.add_argument("--d", type=int, default=64, help="attribute dimension")
    rep.add_argument("--churn", type=float, default=0.02,
                     help="per-epoch membership-churn fraction")
    rep.add_argument("--births", type=float, default=0.01,
                     help="per-epoch node-birth fraction")
    rep.add_argument("--deaths", type=float, default=0.005,
                     help="per-epoch node-retirement fraction")
    rep.add_argument("--drift", type=float, default=0.03,
                     help="per-epoch attribute-drift fraction")
    rep.add_argument("--merge-at", type=int, nargs="*", default=None,
                     metavar="EPOCH", help="epochs with a community merge")
    rep.add_argument("--split-at", type=int, nargs="*", default=None,
                     metavar="EPOCH", help="epochs with a community split")
    rep.add_argument("--scenario-seed", type=int, default=0)
    rep.add_argument(
        "--edges-file", default=None, metavar="FILE",
        help="replay an 'u v t' timestamped edge file instead of a "
        "generated scenario (Enron-style; windows become epochs)",
    )
    rep.add_argument("--queries-per-epoch", type=int, default=128)
    rep.add_argument(
        "--size", type=int, default=None,
        help="cluster size per query (default: the planted cluster's size)",
    )
    rep.add_argument("--zipf", type=float, default=1.1,
                     help="Zipf exponent of the query-popularity skew")
    rep.add_argument("--mode", choices=["closed", "open"], default="closed")
    rep.add_argument("--rate-qps", type=float, default=2000.0,
                     help="open-loop arrival rate (bursts spike above it)")
    rep.add_argument("--replay-seed", type=int, default=0)
    rep.add_argument("--track-seeds", type=int, default=8,
                     help="seeds tracked for cross-epoch cluster stability")
    rep.add_argument(
        "--verify-every", type=int, default=0, metavar="K",
        help="every K epochs, refit from scratch and demand bitwise-equal "
        "answers (0 disables)",
    )
    rep.add_argument("--metric", choices=["cosine", "exp_cosine"],
                     default="cosine")
    rep.add_argument("--max-batch", type=int, default=64)
    rep.add_argument("--cache-size", type=int, default=4096)
    rep.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="replay against N worker processes (0 = answer in this process)",
    )
    rep.add_argument("--report", default=None, metavar="PATH",
                     help="write per-epoch reports + summary JSON to PATH")
    rep.add_argument("--stats", action="store_true",
                     help="print service telemetry to stderr at the end")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "datasets": _cmd_datasets,
        "methods": _cmd_methods,
        "cluster": _cmd_cluster,
        "serve": _cmd_serve,
        "update": _cmd_update,
        "replay": _cmd_replay,
    }
    try:
        return handlers[args.command](args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early — not an error.
        return 0
