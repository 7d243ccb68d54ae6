"""Tests for answer_block's routing: frontier loop while queries stay local,
block mat-mat only once they saturate.

Every test runs the in-thread service (``workers=0``) and a live 2-worker
pool (``workers=2``), because the pool workers call the same
``answer_block`` as the dispatcher.
"""

import numpy as np
import pytest

from repro.core.config import LacaConfig
from repro.core.pipeline import LACA
from repro.diffusion.base import block_diffusion_pays
from repro.graphs.datasets import load_dataset
from repro.serving import ClusterService
from repro.serving.service import _batch_support, _result_support

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
    """The mask unions return exactly the old ``np.unique`` set."""

    @pytest.mark.parametrize("regime", ["frontier_model", "saturated_model"])
    def test_result_support(self, regime, request):
        model = request.getfixturevalue(regime)
        workspace = model.make_workspace()
        tracked = untracked = 0
        for seed in _seeds(model, 6, seed=3):
            for ws in (workspace, None):
                result = model.scores(seed, workspace=ws)
                for diffusion in (result.rwr, result.bdd):
                    tracked += diffusion.touched is not None
                    untracked += diffusion.touched is None
                got = _result_support(result)
                np.testing.assert_array_equal(got, _old_result_support(result))
                assert got.dtype == np.int32
        # Each regime exercises the branch it is here for.
        assert (tracked if regime == "frontier_model" else untracked) > 0

    @pytest.mark.parametrize("regime", ["frontier_model", "saturated_model"])
    def test_batch_support(self, regime, request):
        model = request.getfixturevalue(regime)
        result = model.scores_batch(_seeds(model, 4, seed=4))
        for b in range(result.n_queries):
            expected = _unique_support(
                [
                    np.flatnonzero(part[:, b])
                    for part in (
                        result.rwr.q, result.rwr.residual,
                        result.bdd.q, result.bdd.residual,
                    )
                ]
            )
            got = _batch_support(result, b)
            np.testing.assert_array_equal(got, expected)
            assert got.dtype == np.int32
