"""Cross-engine equivalence suite over graphs of varying density.

All diffusion engines — greedy, non-greedy, push, adaptive, and the
block engines — answer the same problem under the same threshold, so on
any input they must (a) terminate with every residual below
``ε·d(v_i)`` (the Eq. 15 stopping rule), and (b) agree with each other
on ``q`` within the Eq. (14) additive bound: each engine's output lies
in ``[exact − ε·d, exact]``, hence any two engines differ by at most
``ε·d(v_t)`` per node.
"""

import numpy as np
import pytest

from repro.diffusion import adaptive_diffuse, greedy_diffuse, nongreedy_diffuse
from repro.diffusion.batch import batch_diffuse
from repro.diffusion.push import push_diffuse
from repro.graphs.generators import SBMConfig, attributed_sbm

ENGINES = {
    "greedy": greedy_diffuse,
    "nongreedy": nongreedy_diffuse,
    "adaptive": lambda g, f, alpha, epsilon: adaptive_diffuse(
        g, f, alpha=alpha, sigma=0.1, epsilon=epsilon
    ),
    "push": push_diffuse,
}

#: Sparse, medium, and dense random graphs (avg degree 4 / 10 / 28).
DENSITIES = [4.0, 10.0, 28.0]
GRAPH_SEEDS = [0, 1]


def _graph(avg_degree, seed):
    config = SBMConfig(n=90, n_communities=3, avg_degree=avg_degree, d=8)
    return attributed_sbm(config, seed=seed, name=f"sbm-deg{avg_degree:g}")


def _run_all(graph, f, alpha, epsilon):
    results = {
        name: engine(graph, f, alpha, epsilon) for name, engine in ENGINES.items()
    }
    # The block engines answer the same query through the batched path.
    for engine in ("greedy", "nongreedy", "adaptive"):
        block = batch_diffuse(
            graph, f[:, None], alpha=alpha, epsilon=epsilon, engine=engine
        )
        results[f"batch-{engine}"] = block.column(0)
    return results


@pytest.mark.parametrize("avg_degree", DENSITIES)
@pytest.mark.parametrize("graph_seed", GRAPH_SEEDS)
class TestCrossEngineEquivalence:
    ALPHA = 0.8
    EPSILON = 1e-4

    def _inputs(self, graph, graph_seed):
        one_hot = np.zeros(graph.n)
        one_hot[(7 * graph_seed + 3) % graph.n] = 1.0
        rng = np.random.default_rng(graph_seed)
        general = rng.random(graph.n) * (rng.random(graph.n) < 0.3)
        return [one_hot, general]

    def test_residual_guarantee_at_termination(self, avg_degree, graph_seed):
        graph = _graph(avg_degree, graph_seed)
        for f in self._inputs(graph, graph_seed):
            for name, result in _run_all(graph, f, self.ALPHA, self.EPSILON).items():
                below = result.residual < self.EPSILON * graph.degrees
                assert below.all(), f"{name} left residual above threshold"

    def test_engines_agree_within_additive_bound(self, avg_degree, graph_seed):
        graph = _graph(avg_degree, graph_seed)
        bound = self.EPSILON * graph.degrees + 1e-9
        for f in self._inputs(graph, graph_seed):
            results = _run_all(graph, f, self.ALPHA, self.EPSILON)
            names = list(results)
            for i, a in enumerate(names):
                for b in names[i + 1 :]:
                    gap = np.abs(results[a].q - results[b].q)
                    assert (gap <= bound).all(), f"{a} vs {b} disagree beyond ε·d"

    def test_mass_conservation_everywhere(self, avg_degree, graph_seed):
        graph = _graph(avg_degree, graph_seed)
        for f in self._inputs(graph, graph_seed):
            for name, result in _run_all(graph, f, self.ALPHA, self.EPSILON).items():
                total = result.q.sum() + result.residual.sum()
                assert np.isclose(total, f.sum(), rtol=1e-9), name


@pytest.mark.parametrize("alpha", [0.5, 0.9])
@pytest.mark.parametrize("epsilon", [1e-3, 1e-5])
def test_agreement_across_parameters(alpha, epsilon):
    """The pairwise bound holds across (α, ε) settings on a dense graph."""
    graph = _graph(20.0, seed=5)
    f = np.zeros(graph.n)
    f[13] = 1.0
    results = _run_all(graph, f, alpha, epsilon)
    bound = epsilon * graph.degrees + 1e-9
    reference = results["push"].q
    for name, result in results.items():
        assert (np.abs(result.q - reference) <= bound).all(), name
