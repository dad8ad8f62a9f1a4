"""The networkx topology builders the simulator used before every family was
built directly in CSR form, kept verbatim as the test oracle.

Each builder here returns a :class:`networkx.Graph`;
``CSRGraph.from_networkx(ORACLE_BUILDERS[name](n, **kwargs))`` must equal
``repro.graphs.TOPOLOGY_BUILDERS[name](n, **kwargs)`` byte for byte
(``tests/test_csr_pipeline.py``), and the E13 benchmark times this path
against the direct builders.  Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

import math

import networkx as nx
import numpy as np

from repro.errors import TopologyError

__all__ = ["ORACLE_BUILDERS"]


def _relabel_consecutive(graph: nx.Graph) -> nx.Graph:
    """Relabel nodes to ``0 .. n-1`` preserving adjacency."""
    mapping = {node: index for index, node in enumerate(sorted(graph.nodes()))}
    return nx.relabel_nodes(graph, mapping, copy=True)


def _check_size(n: int, minimum: int = 2) -> None:
    if n < minimum:
        raise TopologyError(f"topology requires at least {minimum} nodes, got {n}")


def line_graph(n: int) -> nx.Graph:
    """Path graph on ``n`` nodes: maximum degree 2, diameter ``n - 1``."""
    _check_size(n)
    return nx.path_graph(n)


def ring_graph(n: int) -> nx.Graph:
    """Cycle on ``n`` nodes: maximum degree 2, diameter ``floor(n / 2)``."""
    _check_size(n, minimum=3)
    return nx.cycle_graph(n)


def two_dimensional_side(n: int) -> int:
    """Side length of the largest square grid with at most ``n`` nodes."""
    return max(2, int(math.isqrt(n)))


def grid_graph(n: int) -> nx.Graph:
    """Two-dimensional square grid with approximately ``n`` nodes.

    The actual node count is ``side ** 2`` where ``side = floor(sqrt(n))``;
    maximum degree 4 and diameter ``2 (side - 1) = Θ(sqrt n)``.
    """
    _check_size(n, minimum=4)
    side = two_dimensional_side(n)
    graph = nx.grid_2d_graph(side, side)
    return _relabel_consecutive(graph)


def torus_graph(n: int) -> nx.Graph:
    """Two-dimensional torus (grid with wraparound): 4-regular."""
    _check_size(n, minimum=9)
    side = two_dimensional_side(n)
    graph = nx.grid_2d_graph(side, side, periodic=True)
    return _relabel_consecutive(graph)


def complete_graph(n: int) -> nx.Graph:
    """Complete graph ``K_n``: diameter 1, maximum degree ``n - 1``."""
    _check_size(n)
    return nx.complete_graph(n)


def star_graph(n: int) -> nx.Graph:
    """Star: one hub connected to ``n - 1`` leaves (diameter 2, Δ = n - 1)."""
    _check_size(n)
    return nx.star_graph(n - 1)


def binary_tree_graph(n: int) -> nx.Graph:
    """Complete-ish binary tree on exactly ``n`` nodes.

    Node ``i`` has children ``2i + 1`` and ``2i + 2`` when they exist, so the
    maximum degree is 3 and the depth is ``Θ(log n)``.
    """
    _check_size(n)
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    for node in range(n):
        for child in (2 * node + 1, 2 * node + 2):
            if child < n:
                graph.add_edge(node, child)
    return graph


def hypercube_graph(n: int) -> nx.Graph:
    """Boolean hypercube with ``2 ** round(log2 n)`` nodes (degree = log2 n)."""
    _check_size(n, minimum=4)
    dimension = max(2, int(round(math.log2(n))))
    graph = nx.hypercube_graph(dimension)
    return _relabel_consecutive(graph)


def barbell_graph(n: int) -> nx.Graph:
    """The paper's barbell: two cliques of ``n // 2`` nodes joined by one edge.

    This is the canonical "bad" topology for uniform algebraic gossip (Ω(n²)
    rounds for all-to-all, Section 1.1) and the canonical "good" topology for
    the IS protocol (large weak conductance, Section 6).
    """
    _check_size(n, minimum=4)
    half = n // 2
    if half < 2:
        raise TopologyError(f"barbell graph requires at least 4 nodes, got {n}")
    graph = nx.Graph()
    left = list(range(half))
    right = list(range(half, 2 * half))
    for clique in (left, right):
        for i, u in enumerate(clique):
            for v in clique[i + 1 :]:
                graph.add_edge(u, v)
    graph.add_edge(left[-1], right[0])
    # If n is odd, attach the leftover node to the left clique so |V| == n.
    if 2 * half < n:
        extra = 2 * half
        for u in left:
            graph.add_edge(extra, u)
    return graph


def dumbbell_graph(n: int, path_length: int = 2) -> nx.Graph:
    """Two cliques connected by a path of ``path_length`` intermediate nodes."""
    _check_size(n, minimum=6)
    if path_length < 0:
        raise TopologyError(f"path_length must be non-negative, got {path_length}")
    clique_size = (n - path_length) // 2
    if clique_size < 2:
        raise TopologyError(
            f"dumbbell with n={n}, path_length={path_length} leaves cliques too small"
        )
    graph = nx.Graph()
    left = list(range(clique_size))
    path = list(range(clique_size, clique_size + path_length))
    right = list(range(clique_size + path_length, 2 * clique_size + path_length))
    for clique in (left, right):
        for i, u in enumerate(clique):
            for v in clique[i + 1 :]:
                graph.add_edge(u, v)
    chain = [left[-1], *path, right[0]]
    for u, v in zip(chain, chain[1:]):
        graph.add_edge(u, v)
    # Attach any leftover nodes (from integer division) to the left clique.
    next_node = 2 * clique_size + path_length
    while next_node < n:
        for u in left:
            graph.add_edge(next_node, u)
        next_node += 1
    return graph


def clique_chain_graph(n: int, cliques: int = 4) -> nx.Graph:
    """``cliques`` equal cliques arranged in a chain, consecutive ones sharing one edge.

    Generalises the barbell (``cliques = 2``).  Its weak conductance for
    ``c >= cliques`` is a constant while its (ordinary) conductance is
    ``O(1/n)``, which is exactly the regime Theorem 7 targets.
    """
    _check_size(n, minimum=2 * cliques)
    if cliques < 2:
        raise TopologyError(f"clique_chain_graph needs at least 2 cliques, got {cliques}")
    size = n // cliques
    if size < 2:
        raise TopologyError(
            f"clique_chain_graph with n={n}, cliques={cliques} leaves cliques too small"
        )
    graph = nx.Graph()
    groups: list[list[int]] = []
    next_node = 0
    for index in range(cliques):
        count = size + (1 if index < n - size * cliques else 0)
        group = list(range(next_node, next_node + count))
        next_node += count
        for i, u in enumerate(group):
            for v in group[i + 1 :]:
                graph.add_edge(u, v)
        groups.append(group)
    for left, right in zip(groups, groups[1:]):
        graph.add_edge(left[-1], right[0])
    return graph


def lollipop_graph(n: int) -> nx.Graph:
    """Lollipop: a clique of ``n // 2`` nodes with a path of ``n - n//2`` nodes attached.

    A classic slow-mixing graph — the clique traps a random walk while the
    path stretches the diameter — used in robustness sweeps alongside the
    barbell.
    """
    _check_size(n, minimum=6)
    clique_size = n // 2
    path_size = n - clique_size
    graph = nx.lollipop_graph(clique_size, path_size)
    return _relabel_consecutive(graph)


def caterpillar_graph(n: int, legs_per_spine: int = 2) -> nx.Graph:
    """Caterpillar: a spine path where every spine node carries pendant leaves.

    Constant maximum degree (``legs_per_spine + 2``) with diameter Θ(n), so it
    belongs to the Theorem 3 family but stresses the many-leaves case where
    most nodes have degree 1.
    """
    _check_size(n, minimum=4)
    if legs_per_spine < 1:
        raise TopologyError(f"legs_per_spine must be positive, got {legs_per_spine}")
    graph = nx.Graph()
    spine_length = max(2, n // (legs_per_spine + 1))
    for spine in range(spine_length - 1):
        graph.add_edge(spine, spine + 1)
    next_node = spine_length
    spine = 0
    while next_node < n:
        graph.add_edge(spine % spine_length, next_node)
        next_node += 1
        spine += 1
    return graph


def small_world_graph(n: int, neighbours: int = 4, rewire_probability: float = 0.1,
                      seed: int = 0) -> nx.Graph:
    """Connected Watts–Strogatz small-world graph.

    Near-constant degree with logarithmic diameter — a realistic "good"
    topology to contrast with the engineered worst cases.
    """
    _check_size(n, minimum=8)
    if neighbours < 2 or neighbours >= n:
        raise TopologyError(f"neighbours must lie in [2, n), got {neighbours}")
    if not 0.0 <= rewire_probability <= 1.0:
        raise TopologyError(
            f"rewire_probability must lie in [0, 1], got {rewire_probability}"
        )
    graph = nx.connected_watts_strogatz_graph(
        n, neighbours, rewire_probability, tries=200, seed=seed
    )
    return _relabel_consecutive(graph)


def star_of_cliques_graph(n: int, cliques: int = 4) -> nx.Graph:
    """``cliques`` equal cliques all attached to one central hub node.

    Like the clique chain this has constant weak conductance but, unlike it,
    every inter-clique path goes through the single hub — the most extreme
    bottleneck-star the IS experiments use.
    """
    _check_size(n, minimum=2 * cliques + 1)
    if cliques < 2:
        raise TopologyError(f"star_of_cliques_graph needs at least 2 cliques, got {cliques}")
    graph = nx.Graph()
    hub = 0
    members = n - 1
    size = members // cliques
    if size < 2:
        raise TopologyError(
            f"star_of_cliques_graph with n={n}, cliques={cliques} leaves cliques too small"
        )
    next_node = 1
    for index in range(cliques):
        count = size + (1 if index < members - size * cliques else 0)
        group = list(range(next_node, next_node + count))
        next_node += count
        for i, u in enumerate(group):
            for v in group[i + 1 :]:
                graph.add_edge(u, v)
        graph.add_edge(hub, group[0])
    return graph


def random_regular_graph(n: int, degree: int = 3, seed: int = 0) -> nx.Graph:
    """Connected random ``degree``-regular graph (constant maximum degree)."""
    _check_size(n, minimum=degree + 1)
    if degree < 2:
        raise TopologyError(f"degree must be at least 2, got {degree}")
    if (n * degree) % 2 != 0:
        n += 1  # a d-regular graph needs n*d even
    rng = np.random.default_rng(seed)
    for attempt in range(100):
        graph = nx.random_regular_graph(degree, n, seed=int(rng.integers(0, 2**31)))
        if nx.is_connected(graph):
            return _relabel_consecutive(graph)
    raise TopologyError(
        f"failed to sample a connected {degree}-regular graph on {n} nodes"
    )  # pragma: no cover - overwhelmingly unlikely


def erdos_renyi_graph(n: int, average_degree: float = 6.0, seed: int = 0) -> nx.Graph:
    """Connected Erdős–Rényi graph ``G(n, p)`` with ``p = average_degree / n``."""
    _check_size(n)
    p = min(1.0, max(average_degree, 2.0 * math.log(max(n, 2))) / n)
    rng = np.random.default_rng(seed)
    for attempt in range(100):
        graph = nx.fast_gnp_random_graph(n, p, seed=int(rng.integers(0, 2**31)))
        if nx.is_connected(graph):
            return _relabel_consecutive(graph)
        p = min(1.0, p * 1.2)
    raise TopologyError(f"failed to sample a connected G({n}, p) graph")  # pragma: no cover


def erdos_renyi_logn_graph(n: int, c: float = 2.0, seed: int = 0) -> nx.Graph:
    """Connected ``G(n, p)`` at the connectivity threshold: ``p = c·log n / n``.

    The sparse regime the event-driven engine targets: average degree
    ``c·log n`` keeps the edge count ``O(n log n)`` while ``c > 1`` keeps the
    graph connected with high probability (retries with a gently inflated
    ``p`` cover the rest).  Sampling derives deterministically from ``seed``,
    so equal ``(n, c, seed)`` always yields the same graph — what keeps
    scenario fingerprints stable.
    """
    _check_size(n, minimum=4)
    if c <= 1.0:
        raise TopologyError(
            f"c must exceed 1 (the connectivity threshold of G(n, c log n / n)), got {c}"
        )
    p = min(1.0, c * math.log(n) / n)
    rng = np.random.default_rng(seed)
    for attempt in range(100):
        graph = nx.fast_gnp_random_graph(n, p, seed=int(rng.integers(0, 2**31)))
        if nx.is_connected(graph):
            return _relabel_consecutive(graph)
        p = min(1.0, p * 1.2)
    raise TopologyError(
        f"failed to sample a connected G({n}, {c} log n / n) graph"
    )  # pragma: no cover - overwhelmingly unlikely for c > 1


def ring_of_cliques_graph(n: int, cliques: int = 4) -> nx.Graph:
    """``cliques`` equal cliques arranged in a ring, consecutive ones sharing one edge.

    The cyclic cousin of the clique chain: with ``cliques = Θ(n / log n)``
    the graph stays sparse (``O(n log n)`` edges for clique size
    ``Θ(log n)``) while every inter-clique path crosses single-edge
    bottlenecks — a deterministic large-n stress case for the event-driven
    engine.  Entirely deterministic, so scenario fingerprints are stable by
    construction.
    """
    _check_size(n, minimum=2 * cliques)
    if cliques < 3:
        raise TopologyError(
            f"ring_of_cliques_graph needs at least 3 cliques to form a ring, got {cliques}"
        )
    size = n // cliques
    if size < 2:
        raise TopologyError(
            f"ring_of_cliques_graph with n={n}, cliques={cliques} leaves cliques too small"
        )
    graph = nx.Graph()
    groups: list[list[int]] = []
    next_node = 0
    for index in range(cliques):
        count = size + (1 if index < n - size * cliques else 0)
        group = list(range(next_node, next_node + count))
        next_node += count
        for i, u in enumerate(group):
            for v in group[i + 1 :]:
                graph.add_edge(u, v)
        groups.append(group)
    for left, right in zip(groups, groups[1:]):
        graph.add_edge(left[-1], right[0])
    graph.add_edge(groups[-1][-1], groups[0][0])
    return graph


def expander_graph(n: int, seed: int = 0) -> nx.Graph:
    """A constant-degree expander surrogate: a connected random 4-regular graph.

    Random regular graphs are expanders with high probability, which is all
    the conductance-sensitive experiments need.
    """
    return random_regular_graph(n, degree=4, seed=seed)


#: Registry name -> networkx reference builder.
ORACLE_BUILDERS = {
    "line": line_graph,
    "ring": ring_graph,
    "grid": grid_graph,
    "torus": torus_graph,
    "complete": complete_graph,
    "star": star_graph,
    "binary_tree": binary_tree_graph,
    "hypercube": hypercube_graph,
    "barbell": barbell_graph,
    "dumbbell": dumbbell_graph,
    "clique_chain": clique_chain_graph,
    "lollipop": lollipop_graph,
    "caterpillar": caterpillar_graph,
    "small_world": small_world_graph,
    "star_of_cliques": star_of_cliques_graph,
    "random_regular": random_regular_graph,
    "erdos_renyi": erdos_renyi_graph,
    "erdos_renyi_logn": erdos_renyi_logn_graph,
    "ring_of_cliques": ring_of_cliques_graph,
    "expander": expander_graph,
}
