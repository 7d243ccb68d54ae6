"""Tests for answer_block's routing: frontier loop while queries stay local,
block mat-mat only once they saturate, and one thread per workspace for a
block of large local queries.

Every service test runs the in-thread service (``workers=0``) and a live
2-worker pool (``workers=2``), because the pool workers call the same
``answer_block`` as the dispatcher (on their single workspace).
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
from repro.graphs.store import GraphDelta
from repro.obs.metrics import MetricsRegistry
from repro.serving import ClusterService
from repro.serving.cache import query_key
from repro.serving.service import _result_support, answer_block
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
def frontier_model(local_model):
    """The local graph at ε=1e-3: scatters never go graph-wide, so the
    engines keep tracking their frontier (``touched`` is set)."""
    return _greedy(local_model.graph, epsilon=1e-3)


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
    workspace = local_model.make_workspace()
    for seed, answer in zip(seeds, answers):
        expected = local_model.cluster(seed, SIZE, workspace)
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
    workspace = model.make_workspace()
    for seed, answer in zip(seeds, answers):
        expected = model.cluster(seed, SIZE, workspace)
        assert answer.dtype == expected.dtype
        np.testing.assert_array_equal(answer, expected)


def _unique_support(parts):
    return np.unique(np.concatenate(parts))


def _old_result_support(result):
    parts = []
    for diffusion in (result.rwr, result.bdd):
        if diffusion.touched is not None:
            parts.append(diffusion.touched)
        else:
            parts += [np.flatnonzero(diffusion.q), np.flatnonzero(diffusion.residual)]
    return _unique_support(parts)


class TestSupportParity:
    """The mask unions return exactly the old ``np.unique`` set, for a
    sequential result (with and without a workspace) and for a block
    column's :class:`~repro.core.laca.LacaResult`."""

    @pytest.mark.parametrize("regime", ["frontier_model", "saturated_model"])
    def test_result_support(self, regime, request):
        model = request.getfixturevalue(regime)
        workspace = model.make_workspace()
        seeds = _seeds(model, 6, seed=3)
        batch = model.scores_batch(seeds)
        tracked = untracked = 0
        for b, seed in enumerate(seeds):
            sequential = [model.scores(seed, workspace=workspace), model.scores(seed)]
            for result in sequential:
                for diffusion in (result.rwr, result.bdd):
                    tracked += diffusion.touched is not None
                    untracked += diffusion.touched is None
            for result in (*sequential, batch.query(b)):
                got = _result_support(result)
                np.testing.assert_array_equal(got, _old_result_support(result))
                assert got.dtype == np.int32
        # Each sequential regime exercises the branch it is here for.
        assert tracked > 0 if regime == "frontier_model" else untracked > 0


# -- fan-out over one thread per workspace ------------------------------

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
    """Three workspaces and no volume guard, so every local block of the
    in-thread service fans out; returns the started helper names."""
    monkeypatch.setattr(service_module, "usable_cpus", lambda: FANOUT_CPUS)
    monkeypatch.setattr(routing, "FANOUT_MIN_SCATTER_VOLUME", 0)
    return helpers


def _single_thread(model, seeds):
    """answer_block on one workspace: clusters, supports, kernel tally."""
    registry = MetricsRegistry("reference")
    clusters, supports, _ = answer_block(
        model, [model.make_workspace()], seeds, [SIZE] * len(seeds),
        make_engine_metrics(registry),
    )
    family = registry.get("laca_kernel_selections_total")
    kernels = {key[0]: value for key, value in family.sample_items().items()}
    return clusters, supports, kernels


def _expect_helpers(helpers, workers):
    """The in-thread service fanned out; pool workers never do."""
    if workers:
        assert helpers == [], helpers
    else:
        assert len(helpers) >= FANOUT_CPUS - 1, helpers


@pytest.mark.parametrize("workers", WORKERS)
def test_fanout_answers_and_supports_match_single_thread(local_model, workers, fanout):
    seeds = _seeds(local_model, BLOCK, seed=5)
    expected, expected_supports, _ = _single_thread(local_model, seeds)
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
    workspace = local_model.make_workspace()
    for seed, answer, cluster, support in zip(
        seeds, answers, expected, expected_supports
    ):
        np.testing.assert_array_equal(answer, cluster)
        np.testing.assert_array_equal(answer, local_model.cluster(seed, SIZE, workspace))
        np.testing.assert_array_equal(cached[seed][0], cluster)
        np.testing.assert_array_equal(cached[seed][1], support)
        assert cached[seed][1].dtype == support.dtype


@pytest.mark.parametrize("workers", WORKERS)
def test_fanout_kernel_counts_sum_to_single_thread(local_model, workers, fanout):
    seeds = _seeds(local_model, BLOCK, seed=6)
    _, _, expected = _single_thread(local_model, seeds)
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
def test_update_rebuilds_every_workspace(local_model, workers, fanout):
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
        assert len(service._workspaces) == FANOUT_CPUS
        assert all(ws.graph is head for ws in service._workspaces)
        seeds = [n, *_seeds(model, BLOCK - 1, seed=10)]
        answers = [f.result(timeout=60) for f in service.submit_many(seeds, SIZE)]
    fresh = LACA(local_model.config).fit(head)
    workspace = fresh.make_workspace()
    for seed, answer in zip(seeds, answers):
        np.testing.assert_array_equal(answer, fresh.cluster(seed, SIZE, workspace))
    _expect_helpers(fanout, workers)
