"""Synthetic attributed-graph generators.

The paper evaluates on eight public attributed graphs and three SNAP
community graphs.  None of those are available offline, so we generate
**attributed stochastic block models** whose key statistics (density
``m/n``, community count/size, attribute dimension, attribute/topology
signal strength, noise level) are dialed to mirror each dataset.  The
evaluation phenomena the paper measures — complementarity of topology and
attributes, robustness to missing/noisy links, locality — are functions of
exactly those knobs, so the substitution preserves the shape of every
experiment (see DESIGN.md §3).

Two generators are provided:

* :func:`attributed_sbm` — planted partition topology + per-community topic
  mixtures for attributes, with independent edge-noise and attribute-noise
  controls.
* :func:`plain_sbm` — the non-attributed variant used for the paper's
  Appendix B.5 experiments (com-DBLP / com-Amazon / com-Orkut analogs).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .graph import ATTRIBUTE_BLOCK_ROWS, AttributedGraph, _normalize_rows_in_place

__all__ = [
    "SBMConfig",
    "attributed_sbm",
    "plain_sbm",
    "community_sizes",
    "ensure_connected_cover",
    "planted_partition_edges",
    "random_absent_edges",
    "sparse_topic_profiles",
    "topic_attributes",
    "rewire_edges",
    "sample_secondary_memberships",
]


def random_absent_edges(graph, count: int, rng: np.random.Generator) -> list:
    """``count`` random node pairs that are *not* edges of ``graph``.

    The natural insertion workload for update benchmarks and tests:
    both endpoints exist, no self-loops, every pair is absent from the
    adjacency.  Rejection-samples, so it assumes a sparse graph.
    """
    adj = graph.adjacency
    indptr, indices = adj.indptr, adj.indices
    pairs: list[tuple[int, int]] = []
    while len(pairs) < count:
        u, v = (int(x) for x in rng.integers(0, graph.n, 2))
        if u == v:
            continue
        if v not in indices[indptr[u]:indptr[u + 1]]:
            pairs.append((u, v))
    return pairs


@dataclass(frozen=True)
class SBMConfig:
    """Parameters of an attributed stochastic block model.

    Parameters
    ----------
    n:
        Number of nodes.
    n_communities:
        Number of planted communities; sizes are drawn roughly equal with
        multinomial jitter.
    avg_degree:
        Target average degree (``2m/n``), matching the ``m/n`` column of
        the paper's Table III.
    mixing:
        Fraction of each node's edges that land *outside* its community.
        High mixing means high ground-truth conductance — the noisy-link
        regime that motivates the paper (Flickr: 0.765, Yelp: 0.649).
    d:
        Attribute dimension.
    attribute_noise:
        Standard deviation of i.i.d. Gaussian noise added to each node's
        topic vector before normalization.  Controls how informative the
        attributes are.
    topic_overlap:
        Cosine-style overlap between the topic vectors of different
        communities (0 = orthogonal topics, 1 = identical).
    rewire_fraction:
        Fraction of edges rewired to uniformly random endpoints after the
        SBM draw; models the missing/noisy links of real crawled graphs.
    secondary_fraction:
        Fraction of nodes that additionally belong to a *second*
        community.  Ground-truth local clusters are unions over a node's
        memberships, so overlapping memberships reproduce the paper's
        overlapping subject-area / interest-group ground truth (and keep
        global partitioning methods honest).
    secondary_weight:
        Relative participation (edges and attributes) of a node in its
        secondary community.
    """

    n: int
    n_communities: int
    avg_degree: float
    mixing: float = 0.15
    d: int = 64
    attribute_noise: float = 0.4
    topic_overlap: float = 0.1
    rewire_fraction: float = 0.0
    secondary_fraction: float = 0.3
    secondary_weight: float = 0.35


def community_sizes(
    n: int, n_communities: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw community sizes that sum to ``n`` with mild imbalance."""
    weights = rng.dirichlet(np.full(n_communities, 8.0))
    sizes = np.maximum(1, np.round(weights * n).astype(np.int64))
    # Fix rounding drift by adjusting the largest community.
    sizes[np.argmax(sizes)] += n - sizes.sum()
    if sizes.min() < 1:
        raise ValueError("community size collapsed to zero; lower n_communities")
    return sizes


def _weighted_pick(
    population: np.ndarray,
    weights: np.ndarray,
    count: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sample ``count`` members of ``population`` proportionally to
    ``weights`` via inverse-CDF (fast for repeated large draws)."""
    cumulative = np.cumsum(weights)
    draws = rng.uniform(0.0, cumulative[-1], size=count)
    return population[np.searchsorted(cumulative, draws)]


def sample_secondary_memberships(
    labels: np.ndarray,
    fraction: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Give a ``fraction`` of nodes a second community (``-1`` elsewhere)."""
    n = labels.shape[0]
    n_communities = int(labels.max()) + 1
    secondary = np.full(n, -1, dtype=np.int64)
    if fraction <= 0.0 or n_communities < 2:
        return secondary
    chosen = rng.random(n) < fraction
    draws = rng.integers(0, n_communities - 1, size=int(chosen.sum()))
    # Skip the primary label so the secondary is always different.
    primaries = labels[chosen]
    draws = draws + (draws >= primaries)
    secondary[chosen] = draws
    return secondary


def planted_partition_edges(
    labels: np.ndarray,
    avg_degree: float,
    mixing: float,
    rng: np.random.Generator,
    degree_exponent: float = 2.0,
    secondary: np.ndarray | None = None,
    secondary_weight: float = 0.35,
) -> np.ndarray:
    """Sample a degree-heterogeneous planted-partition edge list.

    Each node receives ~``avg_degree`` half-edges in expectation; a
    ``1 - mixing`` fraction pairs within a community and the rest pairs
    randomly across the graph.  Endpoints are drawn proportionally to
    Pareto(``degree_exponent``) node propensities (Chung-Lu style), giving
    the heavy-tailed degree distributions of real networks — the
    structural heterogeneity the paper calls out as problematic for
    greedy diffusion.  Nodes with a secondary membership participate in
    that community's edges at ``secondary_weight`` of their propensity.
    The construction is O(m).
    """
    n = labels.shape[0]
    n_communities = int(labels.max()) + 1
    propensity = rng.pareto(degree_exponent, size=n) + 1.0
    total_half_edges = int(round(avg_degree * n))
    n_intra = int(round(total_half_edges * (1.0 - mixing) / 2.0))
    n_inter = max(0, total_half_edges // 2 - n_intra)

    # Per-community participant pools: primary members at full propensity,
    # secondary members (if any) at a reduced share.
    pools: list[np.ndarray] = []
    pool_weights: list[np.ndarray] = []
    effective_size = np.zeros(n_communities)
    for community in range(n_communities):
        primary_members = np.flatnonzero(labels == community)
        members = [primary_members]
        weights = [propensity[primary_members]]
        if secondary is not None:
            extra = np.flatnonzero(secondary == community)
            if extra.shape[0] > 0:
                members.append(extra)
                weights.append(secondary_weight * propensity[extra])
        pools.append(np.concatenate(members))
        pool_weights.append(np.concatenate(weights))
        effective_size[community] = float(pool_weights[community].sum())

    valid = np.flatnonzero([pool.shape[0] >= 2 for pool in pools])
    probs = effective_size[valid]
    probs /= probs.sum()
    counts = rng.multinomial(n_intra, probs)

    chunks = []
    for which, count in zip(valid, counts):
        if count == 0:
            continue
        pool, weights = pools[which], pool_weights[which]
        endpoint_a = _weighted_pick(pool, weights, count, rng)
        endpoint_b = _weighted_pick(pool, weights, count, rng)
        chunks.append(np.column_stack([endpoint_a, endpoint_b]))
    if n_inter > 0:
        everyone = np.arange(n)
        endpoint_a = _weighted_pick(everyone, propensity, n_inter, rng)
        endpoint_b = _weighted_pick(everyone, propensity, n_inter, rng)
        chunks.append(np.column_stack([endpoint_a, endpoint_b]))
    edges = np.concatenate(chunks) if chunks else np.empty((0, 2), dtype=np.int64)
    return edges


def sparse_topic_profiles(
    count: int,
    d: int,
    rng: np.random.Generator,
    support_size: int | None = None,
) -> np.ndarray:
    """``count`` sparse non-negative "keyword" profiles, L2-normalized.

    Each profile has exponential weight on a small random support —
    the building block of :func:`topic_attributes`, exposed so dynamic
    scenarios can mint topics for communities born mid-stream with the
    same statistics as the base graph's.  The profiles are normalized in
    place, in row blocks, so the returned matrix is the only
    ``count × d`` array built.
    """
    if support_size is None:
        support_size = max(2, d // 4)
    profiles = np.zeros((count, d))
    for row in range(count):
        support = rng.choice(d, size=support_size, replace=False)
        profiles[row, support] = rng.exponential(scale=1.0, size=support_size)
    return _normalize_rows_in_place(profiles)


def topic_attributes(
    labels: np.ndarray,
    d: int,
    attribute_noise: float,
    topic_overlap: float,
    rng: np.random.Generator,
    secondary: np.ndarray | None = None,
    secondary_weight: float = 0.35,
) -> np.ndarray:
    """Non-negative per-community topic vectors + noise, L2-normalized.

    Mirrors bag-of-words attributes on citation/social graphs: every
    community has a sparse non-negative "keyword" profile; nodes are noisy
    samples of their community profile.  Non-negativity matters — the SNAS
    normalization of Eq. (1) assumes positive kernel row sums, which holds
    for real bag-of-words data and must hold for the synthetic analog.
    ``topic_overlap`` blends each topic with a shared background profile
    so communities are not trivially separable in attribute space, and
    ``attribute_noise`` mixes in a per-node random keyword profile.

    Node ``i``'s row is ``normalize(signal_i + attribute_noise · noise_i)``
    with ``noise_i = normalize(0.7 · confuser_i + 0.3 · random_i)``.  It is
    computed in place in the ``n × d`` array of random profiles, one
    ``ATTRIBUTE_BLOCK_ROWS``-row block at a time, so that array is the
    only ``n × d`` one built; the values are bitwise those of the
    whole-matrix expressions.
    """
    n_communities = int(labels.max()) + 1
    n = labels.shape[0]

    topics = sparse_topic_profiles(n_communities, d, rng)
    background = sparse_topic_profiles(1, d, rng)[0]
    topics = _normalize_rows_in_place(
        (1.0 - topic_overlap) * topics + topic_overlap * background
    )

    # Noise is *confusable*: a blend of some other community's topic and a
    # random keyword profile.  Pure white noise would average out over a
    # community and leave the clustering trivially easy; topic-confusion
    # noise creates the cross-community attribute ambiguity real
    # bag-of-words data exhibits.
    confusers = rng.integers(0, n_communities, size=n)
    attrs = sparse_topic_profiles(n, d, rng)
    attrs *= 0.3
    confuser_topics = 0.7 * topics
    if secondary is None:
        secondary = np.full(n, -1)
    for lo in range(0, n, ATTRIBUTE_BLOCK_ROWS):
        rows = slice(lo, lo + ATTRIBUTE_BLOCK_ROWS)
        block = attrs[rows]
        block += confuser_topics[confusers[rows]]
        _normalize_rows_in_place(block)
        block *= attribute_noise
        signal = topics[labels[rows]]
        has_secondary = secondary[rows] >= 0
        signal[has_secondary] = (1.0 - secondary_weight) * signal[
            has_secondary
        ] + secondary_weight * topics[secondary[rows][has_secondary]]
        block += signal
        _normalize_rows_in_place(block)
    return attrs


def rewire_edges(
    edges: np.ndarray, fraction: float, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Rewire a fraction of edge endpoints to uniformly random nodes.

    This simultaneously *removes* true links and *adds* noisy ones — the
    corruption the paper argues pure-topology LGC is vulnerable to.
    """
    if fraction <= 0.0 or edges.shape[0] == 0:
        return edges
    edges = edges.copy()
    n_rewire = int(round(fraction * edges.shape[0]))
    picked = rng.choice(edges.shape[0], size=n_rewire, replace=False)
    side = rng.integers(0, 2, size=n_rewire)
    edges[picked, side] = rng.integers(0, n, size=n_rewire)
    return edges


def ensure_connected_cover(
    edges: np.ndarray, labels: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Append a random in-community chain so no node is isolated.

    A spanning chain within each community (in random order) guarantees a
    minimum degree of 1 and keeps every community internally connected,
    without materially changing degree statistics.
    """
    chains = []
    for community in np.unique(labels):
        if community < 0:
            continue
        members = np.flatnonzero(labels == community)
        if members.shape[0] < 2:
            continue
        perm = rng.permutation(members)
        chains.append(np.column_stack([perm[:-1], perm[1:]]))
    # One chain over community representatives keeps the graph connected.
    representatives = np.array(
        [np.flatnonzero(labels == c)[0] for c in np.unique(labels) if c >= 0]
    )
    if representatives.shape[0] >= 2:
        chains.append(np.column_stack([representatives[:-1], representatives[1:]]))
    if not chains:
        return edges
    return np.concatenate([edges] + chains)


def attributed_sbm(
    config: SBMConfig, seed: int | None = None, name: str = "sbm"
) -> AttributedGraph:
    """Generate an attributed SBM graph according to ``config``."""
    rng = np.random.default_rng(seed)
    sizes = community_sizes(config.n, config.n_communities, rng)
    labels = np.repeat(np.arange(config.n_communities), sizes)
    rng.shuffle(labels)
    secondary = sample_secondary_memberships(
        labels, config.secondary_fraction, rng
    )

    edges = planted_partition_edges(
        labels,
        config.avg_degree,
        config.mixing,
        rng,
        secondary=secondary,
        secondary_weight=config.secondary_weight,
    )
    edges = rewire_edges(edges, config.rewire_fraction, config.n, rng)
    edges = ensure_connected_cover(edges, labels, rng)
    attrs = topic_attributes(
        labels,
        config.d,
        config.attribute_noise,
        config.topic_overlap,
        rng,
        secondary=secondary,
        secondary_weight=config.secondary_weight,
    )
    return AttributedGraph.from_edges(
        config.n,
        edges,
        attributes=attrs,
        communities=labels,
        secondary_communities=secondary,
        name=name,
    )


def plain_sbm(
    n: int,
    n_communities: int,
    avg_degree: float,
    mixing: float = 0.1,
    secondary_fraction: float = 0.2,
    seed: int | None = None,
    name: str = "sbm-plain",
) -> AttributedGraph:
    """Non-attributed planted-partition graph (Appendix B.5 datasets)."""
    rng = np.random.default_rng(seed)
    sizes = community_sizes(n, n_communities, rng)
    labels = np.repeat(np.arange(n_communities), sizes)
    rng.shuffle(labels)
    secondary = sample_secondary_memberships(labels, secondary_fraction, rng)
    edges = planted_partition_edges(
        labels, avg_degree, mixing, rng, secondary=secondary
    )
    edges = ensure_connected_cover(edges, labels, rng)
    return AttributedGraph.from_edges(
        n,
        edges,
        attributes=None,
        communities=labels,
        secondary_communities=secondary,
        name=name,
    )
