"""Tests for answer_block's routing: frontier loop while queries stay local,
block mat-mat only once they saturate, and one thread per usable CPU for a
block of large local queries.

Every service test runs the in-thread service (``workers=0``) and a live
2-worker pool (``workers=2``), because the pool workers call the same
``answer_block`` as the dispatcher (on one thread).
"""

import os
import threading
from types import SimpleNamespace

import numpy as np
import pytest

import repro.serving.service as service_module
from repro.core import routing
from repro.core.config import LacaConfig
from repro.core.pipeline import LACA
from repro.diffusion.base import block_diffusion_pays
from repro.graphs.datasets import load_dataset
from repro.graphs.graph import AttributedGraph
from repro.graphs.store import GraphDelta
from repro.obs.metrics import MetricsRegistry
from repro.serving import ClusterService
from repro.serving.cache import query_key
from repro.serving.service import answer_block
from repro.serving.telemetry import make_engine_metrics

WORKERS = [0, 2]
BLOCK = 10
SIZE = 20


def _greedy(graph, **overrides):
    config = LacaConfig(metric="cosine", diffusion="greedy", k=8, **overrides)
    return LACA(config).fit(graph)


@pytest.fixture(scope="module")
def local_model():
    """arxiv analog (n=2000) at ε=1e-4: each query pushes ~0.1·n nodes and
    its scatters stay on the gather/csc kernels but for one stray full."""
    return _greedy(load_dataset("arxiv", scale=0.25), epsilon=1e-4)


@pytest.fixture(scope="module")
def saturated_model():
    """arxiv analog (n=800) at the default ε: every query reaches all n."""
    return _greedy(load_dataset("arxiv", scale=0.1))


def _serve_one_block(model, seeds, workers):
    """Submit ``seeds`` as one coalesced block; return answers and kernels."""
    with ClusterService(
        model, workers=workers, max_batch=len(seeds), max_wait_s=0.5, cache_size=0
    ) as service:
        futures = [service.submit(seed, SIZE) for seed in seeds]
        answers = [future.result(timeout=60) for future in futures]
        stats = service.stats()
    family = service.telemetry.registry.get("laca_kernel_selections_total")
    kernels = {key[0]: value for key, value in family.sample_items().items()}
    return answers, kernels, stats


def _seeds(model, count, seed):
    rng = np.random.default_rng(seed)
    return [int(s) for s in rng.choice(model.graph.n, size=count, replace=False)]


class TestPredicate:
    def test_empty_tally_answers_the_first_seed_sequentially(self):
        assert not block_diffusion_pays({})

    def test_one_stray_full_does_not_flip_the_block(self):
        assert not block_diffusion_pays({"gather": 7, "csc": 6, "full": 1})
        assert not block_diffusion_pays({"gather": 1, "full": 1})

    def test_full_majority_flips_the_block(self):
        assert block_diffusion_pays({"gather": 4, "csc": 7, "full": 20})

    def test_push_never_flips_the_block(self):
        assert not block_diffusion_pays({"push": 2})


@pytest.mark.parametrize("workers", WORKERS)
def test_local_block_stays_sequential_and_bitwise(local_model, workers):
    seeds = _seeds(local_model, BLOCK, seed=1)
    answers, kernels, stats = _serve_one_block(local_model, seeds, workers)
    assert stats["max_batch_occupancy"] >= 8, stats
    # Stray full scatters were tallied, yet no seed left the sequential path.
    assert 0 < kernels.get("full", 0) < kernels.get("gather", 0), kernels
    assert not [kind for kind in kernels if kind.startswith("block_")], kernels
    for seed, answer in zip(seeds, answers):
        expected = local_model.cluster(seed, SIZE)
        assert answer.dtype == expected.dtype
        np.testing.assert_array_equal(answer, expected)


@pytest.mark.parametrize("workers", WORKERS)
def test_saturating_block_switches_to_block_engine(saturated_model, workers):
    seeds = _seeds(saturated_model, BLOCK, seed=2)
    answers, kernels, stats = _serve_one_block(saturated_model, seeds, workers)
    assert stats["max_batch_occupancy"] >= 2, stats
    # The first seed ran sequentially (its scatters are what flipped the
    # block); the rest shared the block engine.
    assert kernels.get("full", 0) > 0, kernels
    assert sum(v for k, v in kernels.items() if k.startswith("block_")) > 0, kernels
    for seed, answer in zip(seeds, answers):
        np.testing.assert_array_equal(answer, saturated_model.cluster(seed, SIZE))


@pytest.mark.parametrize("regime", ["local_model", "saturated_model"])
def test_pool_spreads_one_block_over_every_worker(regime, request):
    """One gathered block is split into one shard per live worker; it is
    still recorded as one coalesced block, and every shard's answers are
    bitwise ``LACA.cluster``."""
    model = request.getfixturevalue(regime)
    seeds = _seeds(model, BLOCK, seed=4)
    answers, _, stats = _serve_one_block(model, seeds, workers=2)
    occupancy = stats["worker_occupancy"]
    assert len(occupancy) == 2, occupancy
    assert all(entry["seeds"] > 0 for entry in occupancy.values()), occupancy
    assert sum(entry["seeds"] for entry in occupancy.values()) == BLOCK
    assert stats["batches"] == 1, stats
    assert stats["max_batch_occupancy"] == BLOCK, stats
    for seed, answer in zip(seeds, answers):
        expected = model.cluster(seed, SIZE)
        assert answer.dtype == expected.dtype
        np.testing.assert_array_equal(answer, expected)


class _Recorder:
    """Stands in for a histogram: keeps every observed value in order."""

    def __init__(self):
        self.values = []

    def observe(self, value):
        self.values.append(value)


def _observed_touch(model, seeds):
    """answer_block on one thread: each query's observed touched-node
    count and touched volume, in seed order, plus the kernel tally."""
    registry = MetricsRegistry("touch")
    metrics = make_engine_metrics(registry)
    metrics.touched_nodes, metrics.touched_volume = _Recorder(), _Recorder()
    answer_block(model, 1, seeds, [2] * len(seeds), metrics)
    family = registry.get("laca_kernel_selections_total")
    kernels = {key[0]: value for key, value in family.sample_items().items()}
    return metrics.touched_nodes.values, metrics.touched_volume.values, kernels


def _touch_by_hand(model, result):
    """Size and degree sum of the union of each diffusion's ``touched``
    set, or of its non-zero ``q``/``residual`` when it tracked none."""
    nodes = set()
    for diffusion in (result.rwr, result.bdd):
        if diffusion.touched is not None:
            nodes.update(diffusion.touched.tolist())
        else:
            nodes.update(np.flatnonzero(diffusion.q).tolist())
            nodes.update(np.flatnonzero(diffusion.residual).tolist())
    ids = np.array(sorted(nodes), dtype=np.int64)
    return ids.size, float(model.graph.degrees[ids].sum())


class TestTouchedHistograms:
    """``laca_touched_nodes`` / ``laca_touched_volume`` observe, per query,
    the size and degree sum of the union of the nodes its two diffusions
    touched, on the sequential path and for a block column alike."""

    @pytest.mark.parametrize(
        ("config", "seed"),
        [
            (LacaConfig(k=3, epsilon=0.1), 7),
            (LacaConfig(k=3, epsilon=0.2, use_snas=False), 6),
        ],
        ids=["rwr_wider", "bdd_wider"],
    )
    def test_sequential_path(self, config, seed):
        # Ten triangles, each with a five-node tail: every diffusion stays
        # in its seed's component, so the engines track their touched
        # sets, and the RWR and BDD sets differ, so the union matters.
        edges = []
        for base in range(0, 80, 8):
            edges += [(base, base + 1), (base, base + 2)]
            edges += [(base + i, base + i + 1) for i in range(1, 7)]
        attrs = np.abs(np.random.default_rng(0).normal(size=(80, 4))) + 0.05
        model = LACA(config).fit(AttributedGraph.from_edges(80, edges, attributes=attrs))
        nodes, volumes, kernels = _observed_touch(model, [seed])
        result = model.scores(seed)
        rwr, bdd = result.rwr.touched, result.bdd.touched
        assert rwr is not None and bdd is not None
        assert not np.array_equal(rwr, bdd)
        assert "full" not in kernels
        assert (nodes, volumes) == tuple(
            [value] for value in _touch_by_hand(model, result)
        )

    @pytest.mark.parametrize(
        ("seed", "graph_wide"), [(7, "rwr"), (14, "bdd")], ids=["rwr", "bdd"]
    )
    def test_one_diffusion_graph_wide(self, seed, graph_wide):
        # A ring of 80 with chords: at this ε one of the two diffusions
        # reaches half the graph and stops tracking its frontier while
        # the other still tracks it, so the count falls back to a mask.
        edges = [(i, (i + 1) % 80) for i in range(80)]
        edges += [(i, (i + 2) % 80) for i in range(0, 80, 3)]
        attrs = np.abs(np.random.default_rng(1).normal(size=(80, 4))) + 0.05
        graph = AttributedGraph.from_edges(80, edges, attributes=attrs)
        model = LACA(LacaConfig(k=3, epsilon=0.1)).fit(graph)
        nodes, volumes, _ = _observed_touch(model, [seed])
        result = model.scores(seed)
        untracked = {
            name for name in ("rwr", "bdd")
            if getattr(result, name).touched is None
        }
        assert untracked == {graph_wide}
        assert (nodes, volumes) == tuple(
            [value] for value in _touch_by_hand(model, result)
        )

    def test_block_column(self, tiny_graph):
        # At this ε every query saturates the tiny graph, so the first seed
        # runs sequentially and the other two as columns of one
        # scores_batch, whose residuals reach nodes their q does not.
        model = LACA(LacaConfig(k=3, epsilon=0.11)).fit(tiny_graph)
        seeds = [0, 2, 4]
        nodes, volumes, kernels = _observed_touch(model, seeds)
        assert any(kind.startswith("block_") for kind in kernels), kernels
        columns = model.scores_batch(seeds[1:])
        for column in columns:
            assert column.rwr.touched is None and column.bdd.touched is None
            pushed = np.union1d(
                np.flatnonzero(column.rwr.q), np.flatnonzero(column.bdd.q)
            )
            assert pushed.size < _touch_by_hand(model, column)[0]
        results = [model.scores(seeds[0]), *columns]
        expected = [_touch_by_hand(model, result) for result in results]
        assert nodes == [count for count, _ in expected]
        assert volumes == [volume for _, volume in expected]


# -- fan-out over one thread per usable CPU -----------------------------

FANOUT_CPUS = 3


@pytest.fixture
def helpers(monkeypatch):
    """Names of the helper threads the routing starts (a test seam: the
    routing module sees a ``threading`` whose ``Thread`` records them)."""
    started = []

    class RecordingThread(threading.Thread):
        def start(self):
            started.append(self.name)
            super().start()

    monkeypatch.setattr(
        routing, "threading", SimpleNamespace(Thread=RecordingThread, Lock=threading.Lock)
    )
    return started


@pytest.fixture
def fanout(monkeypatch, helpers):
    """Three usable CPUs and no volume guard, so every local block of the
    in-thread service fans out; returns the started helper names."""
    monkeypatch.setattr(service_module, "usable_cpus", lambda: FANOUT_CPUS)
    monkeypatch.setattr(routing, "FANOUT_MIN_SCATTER_VOLUME", 0)
    return helpers


def _single_thread(model, seeds):
    """answer_block on one thread: clusters, kernel tally."""
    registry = MetricsRegistry("reference")
    clusters, _ = answer_block(
        model, 1, seeds, [SIZE] * len(seeds), make_engine_metrics(registry)
    )
    family = registry.get("laca_kernel_selections_total")
    kernels = {key[0]: value for key, value in family.sample_items().items()}
    return clusters, kernels


def _expect_helpers(helpers, workers):
    """The in-thread service fanned out; pool workers never do."""
    if workers:
        assert helpers == [], helpers
    else:
        assert len(helpers) >= FANOUT_CPUS - 1, helpers


@pytest.mark.parametrize("workers", WORKERS)
def test_fanout_answers_match_single_thread(local_model, workers, fanout):
    seeds = _seeds(local_model, BLOCK, seed=5)
    expected, _ = _single_thread(local_model, seeds)
    with ClusterService(
        local_model, workers=workers, max_batch=BLOCK, max_wait_s=0.5, cache_size=64
    ) as service:
        answers = [f.result(timeout=60) for f in service.submit_many(seeds, SIZE)]
        cached = {
            seed: service.cache._entries[
                query_key(service.name, seed, SIZE, service.digest, service.epoch)
            ]
            for seed in seeds
        }
    _expect_helpers(fanout, workers)
    for seed, answer, cluster in zip(seeds, answers, expected):
        np.testing.assert_array_equal(answer, cluster)
        np.testing.assert_array_equal(answer, local_model.cluster(seed, SIZE))
        np.testing.assert_array_equal(cached[seed], cluster)


@pytest.mark.parametrize("workers", WORKERS)
def test_fanout_kernel_counts_sum_to_single_thread(local_model, workers, fanout):
    seeds = _seeds(local_model, BLOCK, seed=6)
    _, expected = _single_thread(local_model, seeds)
    _, kernels, _ = _serve_one_block(local_model, seeds, workers)
    _expect_helpers(fanout, workers)
    assert kernels == expected


@pytest.mark.parametrize("workers", WORKERS)
def test_small_scatters_start_no_helper(local_model, workers, helpers, monkeypatch):
    seeds = _seeds(local_model, BLOCK, seed=7)
    first = routing.mean_scatter_volume(local_model.scores(seeds[0]))
    monkeypatch.setattr(service_module, "usable_cpus", lambda: FANOUT_CPUS)
    monkeypatch.setattr(routing, "FANOUT_MIN_SCATTER_VOLUME", first + 1.0)
    answers, _, _ = _serve_one_block(local_model, seeds, workers)
    assert helpers == []
    for seed, answer in zip(seeds, answers):
        np.testing.assert_array_equal(answer, local_model.cluster(seed, SIZE))


#: Each regime's engine call: seeds of a local block run one at a time
#: on ``LACA.scores``; the rest of a saturating block runs in chunks on
#: ``LACA.scores_batch``.
REGIME_ENGINES = [("local_model", "scores"), ("saturated_model", "scores_batch")]


@pytest.mark.parametrize(("regime", "engine"), REGIME_ENGINES)
@pytest.mark.parametrize("workers", WORKERS)
def test_helper_failure_fails_the_block_and_serving_goes_on(
    regime, engine, workers, fanout, monkeypatch, request
):
    model = request.getfixturevalue(regime)
    seeds = _seeds(model, 2 * BLOCK, seed=8)
    failing, healthy = seeds[:BLOCK], seeds[BLOCK:]
    expected = [model.cluster(seed, SIZE) for seed in healthy]
    poisoned = set(failing[1:])
    raised = threading.Event()
    parent = os.getpid()
    original = getattr(LACA, engine)

    def failing_engine(self, seeds, *args, **kwargs):
        # Raise on a helper thread (or in a pool worker, which has none);
        # the dispatcher waits for that before answering a poisoned seed,
        # so a helper is sure to claim one.
        if poisoned.intersection(np.atleast_1d(seeds).tolist()):
            if threading.current_thread().name.startswith("laca-block-"):
                raised.set()
                raise RuntimeError("injected engine failure")
            if os.getpid() != parent:
                raise RuntimeError("injected engine failure")
            raised.wait(10)
        return original(self, seeds, *args, **kwargs)

    # Patched before the pool forks, so its workers inherit it.
    monkeypatch.setattr(LACA, engine, failing_engine)
    with ClusterService(
        model, workers=workers, max_batch=BLOCK, max_wait_s=0.5, cache_size=0
    ) as service:
        futures = service.submit_many(failing, SIZE)
        for future in futures:
            with pytest.raises(Exception, match="injected engine failure"):
                future.result(timeout=60)
        answers = [f.result(timeout=60) for f in service.submit_many(healthy, SIZE)]
    if not workers:
        assert raised.is_set()
    _expect_helpers(fanout, workers)
    for answer, cluster in zip(answers, expected):
        np.testing.assert_array_equal(answer, cluster)


@pytest.mark.parametrize("regime", ["local_model", "saturated_model"])
@pytest.mark.parametrize("workers", WORKERS)
def test_no_thread_outlives_its_block(regime, workers, fanout, request):
    model = request.getfixturevalue(regime)
    with ClusterService(
        model, workers=workers, max_batch=BLOCK, max_wait_s=0.5, cache_size=0
    ) as service:
        service.cluster(0, SIZE)
        baseline = threading.active_count()
        for round_ in range(3):
            seeds = _seeds(model, BLOCK, seed=20 + round_)
            for future in service.submit_many(seeds, SIZE):
                future.result(timeout=60)
            assert threading.active_count() == baseline
    _expect_helpers(fanout, workers)


@pytest.mark.parametrize("workers", WORKERS)
def test_update_answers_on_the_new_head(local_model, workers, fanout):
    model = LACA(local_model.config).fit(local_model.graph)
    graph = model.graph
    n = graph.n
    rng = np.random.default_rng(9)
    delta = GraphDelta(
        add_nodes=1,
        add_edges=[(n, 0), (n, 1), (2, 3)],
        add_attributes=np.abs(rng.normal(size=(1, graph.d))) + 0.05,
        add_communities=[0],
        set_attributes=(np.array([5]), np.abs(rng.normal(size=(1, graph.d))) + 0.05),
    )
    with ClusterService(
        model, workers=workers, max_batch=BLOCK, max_wait_s=0.5, cache_size=0
    ) as service:
        service.cluster(0, SIZE)
        service.apply_update(delta)
        head = service.store.head
        assert service._threads == FANOUT_CPUS
        assert service.model.graph is head
        seeds = [n, *_seeds(model, BLOCK - 1, seed=10)]
        answers = [f.result(timeout=60) for f in service.submit_many(seeds, SIZE)]
    fresh = LACA(local_model.config).fit(head)
    for seed, answer in zip(seeds, answers):
        np.testing.assert_array_equal(answer, fresh.cluster(seed, SIZE))
    _expect_helpers(fanout, workers)
