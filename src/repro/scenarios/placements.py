"""Placements: how the ``k`` source messages are initially placed at nodes.

The placement vocabulary is part of the scenario layer, so that a
:class:`~repro.scenarios.ScenarioSpec` can name its placement declaratively.

The paper's k-dissemination setting allows any initial placement ("k initial
messages located at some nodes; a node can hold more than one initial
message").  The placements below cover the cases the evaluation needs:

* :func:`all_to_all_placement` — the all-to-all special case ``k = n`` with
  exactly one message per node;
* :func:`spread_placement` — ``k <= n`` messages at ``k`` distinct evenly
  spaced nodes (the generic k-dissemination workload);
* :func:`single_source_placement` — all ``k`` messages at one node (the
  1-source multicast workload and the worst case for distance-driven bounds);
* :func:`random_placement` — each message at an independently uniform node
  (nodes may hold several messages);
* :func:`adversarial_far_placement` — all messages as far as possible from a
  target node, the worst case the queueing reduction of Theorem 1 allows.

:func:`validate_placement` is re-exported from :mod:`repro.protocols`, whose
coded processes run it on every placement they are given.
"""

from __future__ import annotations

import numpy as np

from ..errors import SimulationError
from ..graphs.csr import CSRGraph
# The one placement check, shared with the coded processes that enforce it.
from ..protocols.algebraic_gossip import validate_placement

__all__ = [
    "Placement",
    "all_to_all_placement",
    "spread_placement",
    "single_source_placement",
    "random_placement",
    "adversarial_far_placement",
    "validate_placement",
]

#: Node id → list of source message indices initially stored there.
Placement = dict[int, list[int]]


def all_to_all_placement(graph: CSRGraph) -> Placement:
    """One message per node (``k = n``): the all-to-all communication special case."""
    nodes = graph.nodes()
    return {node: [index] for index, node in enumerate(nodes)}


def spread_placement(graph: CSRGraph, k: int) -> Placement:
    """``k`` messages at ``k`` (approximately) evenly spaced distinct nodes."""
    nodes = graph.nodes()
    n = len(nodes)
    if not 1 <= k <= n:
        raise SimulationError(f"spread placement requires 1 <= k <= n, got k={k}, n={n}")
    placement: Placement = {}
    for index in range(k):
        node = nodes[(index * n) // k]
        placement.setdefault(node, []).append(index)
    return placement


def single_source_placement(graph: CSRGraph, k: int, source: int | None = None) -> Placement:
    """All ``k`` messages at one node (defaults to the lowest-numbered node)."""
    nodes = graph.nodes()
    if k < 1:
        raise SimulationError(f"k must be positive, got {k}")
    chosen = nodes[0] if source is None else source
    if chosen not in graph:
        raise SimulationError(f"source node {chosen} is not in the graph")
    return {chosen: list(range(k))}


def random_placement(graph: CSRGraph, k: int, rng: np.random.Generator) -> Placement:
    """Each message at an independently uniform random node."""
    nodes = graph.nodes()
    if k < 1:
        raise SimulationError(f"k must be positive, got {k}")
    placement: Placement = {}
    for index in range(k):
        node = nodes[int(rng.integers(0, len(nodes)))]
        placement.setdefault(node, []).append(index)
    return placement


def adversarial_far_placement(graph: CSRGraph, k: int, target: int) -> Placement:
    """All ``k`` messages as far (in hops) from ``target`` as possible.

    This is the worst case permitted by Theorem 1/2 ("customers initially
    distributed arbitrarily"); it maximises the distance every message must
    travel to reach ``target``.
    """
    if target not in graph:
        raise SimulationError(f"target node {target} is not in the graph")
    if k < 1:
        raise SimulationError(f"k must be positive, got {k}")
    # Distance descending, node id ascending within a distance class.
    hops = graph.bfs_distances(target)
    farthest = np.lexsort((np.arange(hops.size), -hops)).tolist()
    placement: Placement = {}
    for index in range(k):
        node = farthest[index % len(farthest)]
        placement.setdefault(node, []).append(index)
    return placement
