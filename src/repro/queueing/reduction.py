"""The gossip → queueing reduction of Theorem 1 (Figure 1 of the paper).

Theorem 1 bounds uniform algebraic gossip by:

1. fixing an arbitrary target node ``v`` and taking a BFS shortest-path tree
   ``T_n`` rooted at it (depth ``l_max ≤ D``),
2. treating helpful messages flowing towards ``v`` as customers in a
   feed-forward queueing network ``Q^tree_n`` with one exponential server per
   node, whose rate is the worst-case probability that a helpful packet
   crosses an edge towards the parent in one timeslot:
   ``p = (1 - 1/q) / (n Δ) ≥ 1 / (2 n Δ)`` in the asynchronous model
   (``(1 - 1/q) / Δ ≥ 1 / (2 Δ)`` per round in the synchronous model), and
3. applying Theorem 2 to bound the time until all ``k`` customers reach the
   root, then a union bound over all target nodes.

This module makes each step executable so the reduction itself can be
validated: the predicted stopping time (analytic and Monte-Carlo versions of
the queueing system) must upper-bound the measured stopping time of the real
gossip simulation on the same graph.  ``benchmarks/bench_theorem2_queueing.py``
(experiment E7) checks it; see the Theorem 2 row of
``docs/reproducing_results.md``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core.config import TimeModel
from ..errors import SimulationError
from ..graphs.csr import CSRGraph
from ..graphs.properties import diameter as graph_diameter
from ..graphs.properties import max_degree as graph_max_degree
from ..graphs.spanning_tree import SpanningTree, bfs_spanning_tree
from .jackson import theorem2_stopping_time_bound
from .network import TreeQueueNetwork

__all__ = [
    "service_probability",
    "worst_case_service_probability",
    "QueueingReduction",
]


def service_probability(q: int, degree_factor: int) -> float:
    """``(1 - 1/q) / degree_factor``: probability a helpful packet crosses an edge.

    ``degree_factor`` is ``n Δ`` per timeslot in the asynchronous model and
    ``Δ`` per round in the synchronous model (Theorem 1's proof), or ``n`` /
    ``1`` respectively when the partner is fixed (Lemma 1, used by TAG).
    """
    if q < 2:
        raise SimulationError(f"field size q must be at least 2, got {q}")
    if degree_factor < 1:
        raise SimulationError(f"degree_factor must be positive, got {degree_factor}")
    return (1.0 - 1.0 / q) / degree_factor


def worst_case_service_probability(degree_factor: int) -> float:
    """The paper's worst case ``q = 2``: ``p = 1 / (2 · degree_factor)``."""
    return service_probability(2, degree_factor)


@dataclass(frozen=True)
class ReductionPrediction:
    """Output of the reduction for one target node (or the union bound over all)."""

    #: Service rate used for the queueing system (per timeslot or per round).
    service_rate: float
    #: Depth of the BFS tree (``l_max``).
    tree_depth: int
    #: Closed-form bound of Theorem 2, in the same time unit as ``service_rate``.
    analytic_bound: float
    #: Monte-Carlo estimate (95th percentile) of the queueing stopping time,
    #: ``None`` when simulation was not requested.
    simulated_whp: float | None


class QueueingReduction:
    """Builds the queueing system of Theorem 1 for a given graph and ``k``.

    Parameters
    ----------
    graph:
        The gossip communication graph ``G_n``.
    k:
        Number of messages to disseminate.
    q:
        RLNC field size (only enters through ``1 - 1/q``).
    time_model:
        Synchronous or asynchronous; selects the per-round versus per-timeslot
        service probability.
    fixed_partner:
        ``True`` for the Lemma 1 variant (algebraic gossip on a tree with the
        partner fixed to the parent), which removes the ``Δ`` factor.
    """

    def __init__(
        self,
        graph: CSRGraph,
        k: int,
        q: int = 2,
        time_model: TimeModel = TimeModel.ASYNCHRONOUS,
        *,
        fixed_partner: bool = False,
    ) -> None:
        if k < 1:
            raise SimulationError(f"k must be positive, got {k}")
        self.graph = graph
        self.k = k
        self.q = q
        self.time_model = time_model
        self.fixed_partner = fixed_partner
        self.n = graph.number_of_nodes()
        self.max_degree = graph_max_degree(graph)
        self.diameter = graph_diameter(graph)

    # ------------------------------------------------------------------
    # Reduction pieces
    # ------------------------------------------------------------------
    def bfs_tree(self, root: int) -> SpanningTree:
        """Step 1: the BFS shortest-path tree rooted at the target node."""
        return bfs_spanning_tree(self.graph, root)

    def service_rate(self) -> float:
        """Step 2: the worst-case service probability ``p`` (used as rate ``μ = p``)."""
        degree_factor = 1 if self.fixed_partner else self.max_degree
        if self.time_model is TimeModel.ASYNCHRONOUS:
            degree_factor *= self.n
        return service_probability(self.q, degree_factor)

    def customer_placement(
        self, tree: SpanningTree, message_nodes: dict[int, int] | None = None
    ) -> dict[int, int]:
        """Initial customers: one per message, at the node holding that message.

        With ``message_nodes=None`` the ``k`` customers are placed at the
        nodes farthest from the root (the worst case the theorem allows:
        "initially distributed arbitrarily").
        """
        if message_nodes is not None:
            nodes = tree.nodes
            known = set(nodes)
            placement: dict[int, int] = {}
            for node, count in message_nodes.items():
                if node not in known:
                    raise SimulationError(f"message placed at unknown node {node}")
                if node == tree.root:
                    continue  # messages already at the target need no transport
                placement[node] = placement.get(node, 0) + int(count)
            if not placement:
                placement = {nodes[-1]: 1}
            return placement
        # One pass for every depth: walking each node to the root is
        # quadratic on deep trees.
        depths = tree._depths()
        ordered = sorted(tree.parent.keys(), key=depths.__getitem__, reverse=True)
        placement = {}
        remaining = self.k
        for node in ordered:
            if remaining == 0:
                break
            placement[node] = placement.get(node, 0) + 1
            remaining -= 1
        if remaining > 0 and ordered:
            placement[ordered[0]] += remaining
        return placement

    # ------------------------------------------------------------------
    # Predictions
    # ------------------------------------------------------------------
    def predict_for_root(
        self,
        root: int,
        rng: np.random.Generator | None = None,
        *,
        trials: int = 0,
        message_nodes: dict[int, int] | None = None,
    ) -> ReductionPrediction:
        """Steps 1–3 for a single target node ``v = root``."""
        tree = self.bfs_tree(root)
        mu = self.service_rate()
        analytic = theorem2_stopping_time_bound(self.k, max(tree.depth, 1), self.n, mu)
        simulated: float | None = None
        if trials > 0:
            if rng is None:
                raise SimulationError("Monte-Carlo prediction requires an rng")
            network = TreeQueueNetwork(
                tree, mu, self.customer_placement(tree, message_nodes)
            )
            samples = network.simulate_many(trials, rng)
            simulated = float(np.quantile(samples, 0.95))
        return ReductionPrediction(
            service_rate=mu,
            tree_depth=tree.depth,
            analytic_bound=analytic,
            simulated_whp=simulated,
        )

    def predicted_rounds_upper_bound(self) -> float:
        """The final bound of Theorem 1 in *rounds*: ``O((k + log n + D) Δ)`` (or
        ``O(k + log n + l_max)`` with a fixed partner, Lemma 1).

        The conversion uses the paper's accounting: the Theorem 2 bound is in
        timeslots for the asynchronous model (divide by ``n`` for rounds) and
        directly in rounds for the synchronous model.
        """
        mu = self.service_rate()
        bound = theorem2_stopping_time_bound(self.k, max(self.diameter, 1), self.n, mu)
        if self.time_model is TimeModel.ASYNCHRONOUS:
            return bound / self.n
        return bound

    def describe(self) -> str:
        """Human-readable summary used by the queueing-reduction example."""
        mu = self.service_rate()
        return (
            f"Reduction on n={self.n}, Δ={self.max_degree}, D={self.diameter}, "
            f"k={self.k}, q={self.q}, {self.time_model.value}, "
            f"{'fixed partner' if self.fixed_partner else 'uniform partner'}: "
            f"service rate μ={mu:.6f}, predicted rounds ≤ "
            f"{self.predicted_rounds_upper_bound():.1f} (with explicit constants; "
            f"the theorem states the same bound up to constants: "
            f"O((k + log n + D)·Δ) = O(({self.k} + {math.ceil(math.log(self.n))} + "
            f"{self.diameter})·{self.max_degree}))"
        )
