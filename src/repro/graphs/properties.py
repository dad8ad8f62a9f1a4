"""Structural graph properties appearing in the paper's bounds.

The upper bound of Theorem 1 is ``O((k + log n + D) Δ)`` — it needs the
diameter ``D`` and the maximum degree ``Δ``.  Lemma 2 bounds the sum of
degrees along any shortest path by ``3n`` (used by the round-robin broadcast
analysis, Theorem 5).  Claim 1 states that constant-degree graphs have
``D = Ω(log n)``.  Section 6 and the comparison with Haeupler's bounds use
conductance, spectral gap and *weak conductance* ``Φ_c``.

This module computes all of those quantities (the weak conductance via the
surrogate that :func:`weak_conductance` documents).  Every function takes a
:class:`~repro.graphs.csr.CSRGraph` (a :class:`networkx.Graph` works too);
the graph algorithms run on :meth:`~repro.graphs.csr.CSRGraph.to_networkx`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import networkx as nx
import numpy as np

from ..errors import TopologyError
from .csr import CSRGraph

__all__ = [
    "GraphProfile",
    "profile_graph",
    "diameter",
    "max_degree",
    "min_degree",
    "shortest_path_degree_sum",
    "max_shortest_path_degree_sum",
    "cut_conductance",
    "graph_conductance",
    "spectral_gap",
    "weak_conductance",
    "min_cut_gamma",
]


def _as_networkx(graph) -> nx.Graph:
    """The networkx graph the algorithms below run on."""
    to_networkx = getattr(graph, "to_networkx", None)
    return graph if to_networkx is None else to_networkx()


def _require_connected(graph: nx.Graph) -> None:
    if graph.number_of_nodes() == 0:
        raise TopologyError("graph has no nodes")
    if not nx.is_connected(graph):
        raise TopologyError("graph must be connected")


def diameter(graph: CSRGraph) -> int:
    """Graph diameter ``D`` (longest shortest path)."""
    graph = _as_networkx(graph)
    _require_connected(graph)
    return int(nx.diameter(graph))


def max_degree(graph: CSRGraph) -> int:
    """Maximum degree ``Δ``."""
    if graph.number_of_nodes() == 0:
        raise TopologyError("graph has no nodes")
    return int(max(degree for _, degree in graph.degree))


def min_degree(graph: CSRGraph) -> int:
    """Minimum degree."""
    if graph.number_of_nodes() == 0:
        raise TopologyError("graph has no nodes")
    return int(min(degree for _, degree in graph.degree))


def shortest_path_degree_sum(graph: CSRGraph, source: int, target: int) -> int:
    """Sum of the degrees of the nodes along one shortest ``source → target`` path.

    Lemma 2 of the paper proves this is at most ``3n`` for every pair, which
    drives the ``O(n)`` bound on round-robin broadcast (Theorem 5).
    """
    graph = _as_networkx(graph)
    _require_connected(graph)
    path = nx.shortest_path(graph, source, target)
    return int(sum(graph.degree(node) for node in path))


def max_shortest_path_degree_sum(graph: CSRGraph, source: int | None = None) -> int:
    """Maximum over targets of :func:`shortest_path_degree_sum` from ``source``.

    With ``source=None`` the maximum is additionally taken over all sources
    (exact but quadratic; fine for the graph sizes the simulations use).
    """
    graph = _as_networkx(graph)
    _require_connected(graph)
    nodes = list(graph.nodes())
    sources = nodes if source is None else [source]
    best = 0
    for s in sources:
        lengths, paths = nx.single_source_dijkstra(graph, s, weight=None)
        for target, path in paths.items():
            total = sum(graph.degree(node) for node in path)
            best = max(best, int(total))
    return best


def cut_conductance(graph: CSRGraph, subset: set[int]) -> float:
    """Conductance ``Φ(S)`` of a single cut ``(S, V \\ S)``.

    ``Φ(S) = |E(S, V\\S)| / min(vol(S), vol(V\\S))`` where ``vol`` is the sum
    of degrees.  Raises if the cut is trivial.
    """
    nodes = set(graph.nodes())
    subset = set(subset)
    if not subset or subset == nodes:
        raise TopologyError("cut must be a proper non-empty subset of the nodes")
    complement = nodes - subset
    crossing = sum(1 for u, v in graph.edges() if (u in subset) != (v in subset))
    volume_s = sum(graph.degree(node) for node in subset)
    volume_c = sum(graph.degree(node) for node in complement)
    denominator = min(volume_s, volume_c)
    if denominator == 0:
        return 0.0
    return crossing / denominator


def graph_conductance(graph: CSRGraph, *, exact_limit: int = 14) -> float:
    """Conductance ``Φ(G) = min over cuts of Φ(S)``.

    Exact enumeration is exponential, so it is only attempted for graphs with
    at most ``exact_limit`` nodes; larger graphs fall back to the spectral
    (Cheeger) estimate ``λ₂ / 2 <= Φ <= sqrt(2 λ₂)`` and return the Fiedler
    based lower estimate ``λ₂ / 2``, which is the quantity the bound
    comparisons need (an order-of-magnitude proxy, not the exact minimum).
    """
    graph = _as_networkx(graph)
    _require_connected(graph)
    n = graph.number_of_nodes()
    if n <= exact_limit:
        nodes = list(graph.nodes())
        best = math.inf
        for size in range(1, n // 2 + 1):
            for subset in combinations(nodes, size):
                best = min(best, cut_conductance(graph, set(subset)))
        return float(best)
    return spectral_gap(graph) / 2.0


def spectral_gap(graph: CSRGraph) -> float:
    """Second-smallest eigenvalue of the normalised Laplacian (``λ₂``)."""
    graph = _as_networkx(graph)
    _require_connected(graph)
    laplacian = nx.normalized_laplacian_matrix(graph).toarray()
    eigenvalues = np.linalg.eigvalsh(laplacian)
    eigenvalues.sort()
    return float(max(eigenvalues[1], 0.0))


def weak_conductance(graph: CSRGraph, c: int) -> float:
    """Surrogate for the weak conductance ``Φ_c(G)`` of Censor-Hillel & Shachnai.

    The exact definition (a maximin over, for every node, subsets containing
    it of at least ``n / c`` nodes) is intractable to evaluate directly.  The
    surrogate partitions the graph into at most ``c`` communities with greedy
    modularity maximisation and returns the minimum *internal* conductance of
    a community, computed on the induced subgraph.  For the graph families the
    paper discusses this matches the intended behaviour:

    * cliques and expanders → ``Θ(1)``,
    * the barbell with ``c >= 2`` → ``Θ(1)`` (each clique is a community),
    * the line with any constant ``c`` → ``Θ(1/n)``.
    """
    graph = _as_networkx(graph)
    _require_connected(graph)
    if c < 1:
        raise TopologyError(f"weak conductance parameter c must be >= 1, got {c}")
    if c == 1:
        return graph_conductance(graph)
    communities = nx.algorithms.community.greedy_modularity_communities(
        graph, cutoff=1, best_n=min(c, graph.number_of_nodes())
    )
    worst = math.inf
    for community in communities:
        community = set(community)
        if len(community) <= 1:
            continue
        induced = graph.subgraph(community).copy()
        if not nx.is_connected(induced):
            # A disconnected community has zero internal conductance; this
            # surrogate treats it as the worst case.
            return 0.0
        worst = min(worst, graph_conductance(induced))
    if worst is math.inf:
        return graph_conductance(graph)
    return float(worst)


def min_cut_gamma(graph: CSRGraph) -> float:
    """Haeupler's min-cut measure ``γ`` used by the Table 2 comparison.

    For the uniform gossip model Haeupler's ``γ`` is (up to constants) the
    minimum over cuts of the probability mass of edges crossing the cut,
    ``min_S sum_{(u,v) across S} (1/(n d_u) + 1/(n d_v))``.  We evaluate it
    exactly for small graphs and via the global minimum edge cut scaled by the
    typical degree for larger ones (documented proxy, Table 2 only needs the
    order of magnitude).
    """
    graph = _as_networkx(graph)
    _require_connected(graph)
    n = graph.number_of_nodes()

    def cut_probability(subset: set[int]) -> float:
        total = 0.0
        for u, v in graph.edges():
            if (u in subset) != (v in subset):
                total += 1.0 / (n * graph.degree(u)) + 1.0 / (n * graph.degree(v))
        return total

    if n <= 14:
        nodes = list(graph.nodes())
        best = math.inf
        for size in range(1, n // 2 + 1):
            for subset in combinations(nodes, size):
                best = min(best, cut_probability(set(subset)))
        return float(best)
    # Larger graphs: use the sparsest of (a) the global min edge cut and
    # (b) the spectral cut, both evaluated through cut_probability.
    cut_edges = nx.minimum_edge_cut(graph)
    # Reconstruct one side of that cut.
    pruned = graph.copy()
    pruned.remove_edges_from(cut_edges)
    component = next(nx.connected_components(pruned))
    return float(cut_probability(set(component)))


@dataclass(frozen=True)
class GraphProfile:
    """Summary of every structural quantity the bounds need, for one graph."""

    n: int
    edges: int
    diameter: int
    max_degree: int
    min_degree: int
    conductance: float
    spectral_gap: float
    max_path_degree_sum: int

    def describe(self) -> str:
        return (
            f"n={self.n}, |E|={self.edges}, D={self.diameter}, Δ={self.max_degree}, "
            f"δ={self.min_degree}, Φ≈{self.conductance:.4f}, λ₂≈{self.spectral_gap:.4f}"
        )


def profile_graph(graph: CSRGraph, *, include_path_degree_sum: bool = False) -> GraphProfile:
    """Compute a :class:`GraphProfile` for ``graph``.

    ``include_path_degree_sum`` is off by default because the exact maximum is
    quadratic in ``n``; experiments that need Lemma 2's quantity opt in.
    """
    graph = _as_networkx(graph)
    _require_connected(graph)
    return GraphProfile(
        n=graph.number_of_nodes(),
        edges=graph.number_of_edges(),
        diameter=diameter(graph),
        max_degree=max_degree(graph),
        min_degree=min_degree(graph),
        conductance=graph_conductance(graph),
        spectral_gap=spectral_gap(graph),
        max_path_degree_sum=(
            max_shortest_path_degree_sum(graph, source=0) if include_path_degree_sum else 0
        ),
    )
