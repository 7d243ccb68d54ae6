"""Bitwise pinning: frontier engines vs. the pre-frontier reference kernels.

The sequential engines run around an explicit frontier with three
scatter kernels (volume-local gather, row-sliced CSC mat-vec, full
mat-vec); greedy, non-greedy and adaptive are modes of one loop,
:func:`repro.diffusion.frontier._frontier_diffuse`, and push keeps its
own queue.  The contract is that this is a pure reorganization: on any
input, every engine's ``q``/``residual`` must equal the retained
reference implementation **bit for bit** (``np.array_equal``, not
allclose), the iteration/step counts exactly, and — for adaptive — the
per-iteration greedy/one-shot *schedule* exactly, because the decision
consumes float accumulations the rewrite must reproduce.

The kernel switch thresholds are monkeypatched across the sweep so every
scatter regime (not just the one the graph size happens to pick) is
exercised against the same oracle.
"""

import numpy as np
import pytest

import repro.diffusion.base as diffusion_base
import repro.diffusion.scatter as scatter_mod
from repro.diffusion import reference as ref
from repro.diffusion import adaptive_diffuse, greedy_diffuse, nongreedy_diffuse
from repro.diffusion.push import push_diffuse
from repro.graphs.generators import SBMConfig, attributed_sbm

ALPHA = 0.8
DENSITIES = [4.0, 28.0]
EPSILONS = [1e-3, 1e-5]

PAIRS = {
    "greedy": (greedy_diffuse, ref.reference_greedy_diffuse),
    "nongreedy": (nongreedy_diffuse, ref.reference_nongreedy_diffuse),
    "push": (push_diffuse, ref.reference_push_diffuse),
}


def _graph(avg_degree, seed=0):
    config = SBMConfig(n=120, n_communities=3, avg_degree=avg_degree, d=8)
    return attributed_sbm(config, seed=seed, name=f"parity-deg{avg_degree:g}")


def _inputs(graph, seed=0):
    one_hot = np.zeros(graph.n)
    one_hot[(7 * seed + 3) % graph.n] = 1.0
    rng = np.random.default_rng(seed)
    sparse = rng.random(graph.n) * (rng.random(graph.n) < 0.3)
    dense = rng.random(graph.n)
    return {"one_hot": one_hot, "sparse": sparse, "dense": dense}


def _assert_bitwise(new, old, label):
    assert np.array_equal(new.q, old.q), f"{label}: q diverged"
    assert np.array_equal(new.residual, old.residual), f"{label}: residual diverged"
    assert new.iterations == old.iterations, f"{label}: iteration count diverged"
    assert new.greedy_steps == old.greedy_steps, f"{label}: greedy steps diverged"
    assert new.nongreedy_steps == old.nongreedy_steps, (
        f"{label}: nongreedy steps diverged"
    )
    assert np.isclose(new.work, old.work, rtol=1e-9), f"{label}: work diverged"


@pytest.mark.parametrize("avg_degree", DENSITIES)
@pytest.mark.parametrize("epsilon", EPSILONS)
class TestBitwiseParity:
    @pytest.mark.parametrize("engine", list(PAIRS))
    def test_engine_matches_reference(self, avg_degree, epsilon, engine):
        graph = _graph(avg_degree)
        new_fn, old_fn = PAIRS[engine]
        for name, f in _inputs(graph).items():
            new = new_fn(graph, f, ALPHA, epsilon)
            old = old_fn(graph, f, ALPHA, epsilon)
            _assert_bitwise(new, old, f"{engine}/{name}")

    @pytest.mark.parametrize("sigma", [0.0, 0.1, 1.0])
    def test_adaptive_matches_reference(self, avg_degree, epsilon, sigma):
        graph = _graph(avg_degree)
        for name, f in _inputs(graph).items():
            new = adaptive_diffuse(graph, f, ALPHA, sigma, epsilon)
            old = ref.reference_adaptive_diffuse(graph, f, ALPHA, sigma, epsilon)
            _assert_bitwise(new, old, f"adaptive/σ={sigma}/{name}")


class TestScatterRegimes:
    """Force each scatter kernel in turn; all must match the oracle."""

    REGIMES = {
        # (SELECTIVE_VOLUME_FRACTION override, _UNIQUE_FRACTION override)
        "always-full": (0.0, 8),
        "always-unique": (1e9, 0),  # unique route: volume * 0 <= n always
        "always-semidense": (1e9, 10**9),  # semidense: volume * huge > n
    }

    @pytest.mark.parametrize("regime", list(REGIMES))
    @pytest.mark.parametrize("engine", ["greedy", "nongreedy", "adaptive"])
    def test_forced_kernel_is_bitwise(self, monkeypatch, regime, engine):
        fraction, unique_fraction = self.REGIMES[regime]
        monkeypatch.setattr(
            diffusion_base, "SELECTIVE_VOLUME_FRACTION", fraction
        )
        monkeypatch.setattr(scatter_mod, "_UNIQUE_FRACTION", unique_fraction)
        graph = _graph(10.0)
        f = _inputs(graph)["sparse"]
        if engine == "adaptive":
            new = adaptive_diffuse(graph, f, ALPHA, 0.1, 1e-4)
            old = ref.reference_adaptive_diffuse(graph, f, ALPHA, 0.1, 1e-4)
        else:
            new_fn, old_fn = PAIRS[engine]
            new = new_fn(graph, f, ALPHA, 1e-4)
            old = old_fn(graph, f, ALPHA, 1e-4)
        _assert_bitwise(new, old, f"{engine}/{regime}")


class TestTouchedDiagnostics:
    def test_touched_covers_q_and_residual_support(self):
        # Large sparse graph + loose threshold: the run stays local, so
        # the frontier tracking survives end to end.
        graph = attributed_sbm(
            SBMConfig(n=2000, n_communities=4, avg_degree=4.0, d=8),
            seed=2,
            name="parity-local",
        )
        f = _inputs(graph)["one_hot"]
        result = greedy_diffuse(graph, f, ALPHA, 1e-2)
        assert result.touched is not None
        written = np.union1d(
            np.flatnonzero(result.q), np.flatnonzero(result.residual)
        )
        assert np.isin(written, result.touched).all()
        # sorted unique
        assert (np.diff(result.touched) > 0).all()

    def test_reference_leaves_touched_unset(self):
        graph = _graph(10.0)
        f = _inputs(graph)["one_hot"]
        assert ref.reference_greedy_diffuse(graph, f, ALPHA, 1e-4).touched is None


class TestErrorBehaviour:
    def test_max_iterations_raise_matches_reference(self, medium_sbm):
        f = np.zeros(medium_sbm.n)
        f[0] = 1.0
        with pytest.raises(RuntimeError, match="did not terminate"):
            greedy_diffuse(medium_sbm, f, alpha=0.9, epsilon=1e-8, max_iterations=2)
        with pytest.raises(RuntimeError, match="did not terminate"):
            adaptive_diffuse(medium_sbm, f, alpha=0.9, epsilon=1e-8, max_iterations=2)
