"""Feed-forward queueing networks in tree and line topologies.

These are the systems of Theorem 2 and its proof (Figures 3 and 4 of the
paper): ``n`` identical queues with a single exponential server each, no
external arrivals, and ``k`` customers initially distributed in the network.
Customers move from a node to its parent when served; they leave the system
when served by the root.  The *stopping time* is the time the last customer
leaves.

The proof compares several systems:

* ``Q^tree_n``    — the original tree (all servers always on),
* ``Q̂^tree_n``   — the tree with only one active server per level,
* ``Q^line``      — the levels collapsed into a line of queues,
* ``Q̂^line``     — the line with all customers moved to the farthest queue,
* the open Jackson line of Lemma 7 (customers re-enter from outside at rate
  ``μ / 2``).

All of them are implemented here so the stochastic-dominance chain
``t(Q^tree) ⪯ t(Q̂^tree) ≈ t(Q^line) ⪯ t(Q̂^line)`` can be verified
empirically (see ``benchmarks/bench_theorem2_queueing.py`` and the tests).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..errors import SimulationError, TopologyError
from ..graphs.spanning_tree import SpanningTree
from .mm1 import departure_times, exponential_service_times

__all__ = [
    "TreeQueueNetwork",
    "line_tree",
    "single_level_scheduling_stopping_time",
    "open_line_stopping_time",
]


@dataclass(frozen=True)
class _Completion:
    """Internal event: the server at ``node`` finishes a customer at ``time``."""

    time: float
    node: int

    def __lt__(self, other: "_Completion") -> bool:
        return (self.time, self.node) < (other.time, other.node)


class TreeQueueNetwork:
    """``Q^tree_n``: work-conserving exponential servers on a rooted tree.

    Parameters
    ----------
    tree:
        The rooted tree (parent map).  The root's "parent" is the outside
        world: customers served at the root leave the system.
    service_rate:
        ``μ`` of every server (for geometric service, the per-timeslot success
        probability ``p``).
    initial_customers:
        Mapping node → number of customers initially queued there.  Nodes not
        listed start empty.
    service:
        ``"exponential"`` (the paper's Q^tree, default) or ``"geometric"`` —
        the raw timeslot model of the gossip reduction before Lemma 2 of [2]
        replaces it with the stochastically slower exponential server.
    """

    def __init__(
        self,
        tree: SpanningTree,
        service_rate: float,
        initial_customers: Mapping[int, int],
        *,
        service: str = "exponential",
    ) -> None:
        if service_rate <= 0:
            raise SimulationError(f"service rate must be positive, got {service_rate}")
        if service not in ("exponential", "geometric"):
            raise SimulationError(
                f"service must be 'exponential' or 'geometric', got {service!r}"
            )
        if service == "geometric" and service_rate > 1:
            raise SimulationError(
                "geometric service interprets service_rate as a probability; it must be <= 1"
            )
        self.service = service
        self.tree = tree
        self.service_rate = service_rate
        self.initial_customers: dict[int, int] = {}
        nodes = set(tree.nodes)
        total = 0
        for node, count in initial_customers.items():
            if node not in nodes:
                raise SimulationError(f"initial customer at unknown node {node}")
            if count < 0:
                raise SimulationError(f"negative customer count at node {node}")
            if count:
                self.initial_customers[node] = int(count)
                total += int(count)
        if total == 0:
            raise SimulationError("the network needs at least one customer")
        self.total_customers = total

    def simulate(self, rng: np.random.Generator) -> float:
        """Run one realisation; return the time the last customer leaves the root."""
        queue_length: dict[int, int] = {node: 0 for node in self.tree.nodes}
        for node, count in self.initial_customers.items():
            queue_length[node] = count
        events: list[_Completion] = []
        busy: set[int] = set()

        def start_service(node: int, now: float) -> None:
            if node in busy or queue_length[node] == 0:
                return
            busy.add(node)
            if self.service == "exponential":
                duration = float(rng.exponential(scale=1.0 / self.service_rate))
            else:
                duration = float(rng.geometric(self.service_rate))
            heapq.heappush(events, _Completion(time=now + duration, node=node))

        for node in self.tree.nodes:
            start_service(node, 0.0)

        departed = 0
        last_departure = 0.0
        while events:
            event = heapq.heappop(events)
            node = event.node
            busy.discard(node)
            queue_length[node] -= 1
            parent = self.tree.parent.get(node)
            if parent is None:
                departed += 1
                last_departure = event.time
                if departed == self.total_customers:
                    return last_departure
            else:
                queue_length[parent] += 1
                start_service(parent, event.time)
            start_service(node, event.time)
        raise SimulationError(
            "queueing simulation ended before all customers departed"
        )  # pragma: no cover - defensive

    def simulate_many(self, trials: int, rng: np.random.Generator) -> np.ndarray:
        """Run ``trials`` independent realisations and return their stopping times."""
        if trials < 1:
            raise SimulationError(f"trials must be positive, got {trials}")
        return np.array([self.simulate(rng) for _ in range(trials)], dtype=float)


def line_tree(length: int) -> SpanningTree:
    """A line of ``length`` queues as a tree: node 0 is the root, node i's parent is i-1."""
    if length < 1:
        raise SimulationError(f"line length must be positive, got {length}")
    parent = {index: index - 1 for index in range(1, length)}
    return SpanningTree(root=0, parent=parent)


def single_level_scheduling_stopping_time(
    tree: SpanningTree,
    service_rate: float,
    initial_customers: Mapping[int, int],
    rng: np.random.Generator,
) -> float:
    """Stopping time of ``Q̂^tree_n``: only one server active per tree level.

    This is the modified scheduling of Definition 5 in the appendix.  Because
    at most one customer is in service per level at any time, the system
    behaves exactly like the collapsed line ``Q^line`` (Lemma 5); simulating it
    as a line of ``depth + 1`` queues whose initial content is the per-level
    customer count is therefore faithful, and is how we implement it.
    """
    depths = tree._depths()
    depth = max(depths.values())
    per_level: dict[int, int] = {level: 0 for level in range(depth + 1)}
    for node, count in initial_customers.items():
        if node not in depths:
            raise TopologyError(f"node {node} is not part of the tree")
        per_level[depths[node]] += int(count)
    line = line_tree(depth + 1)
    network = TreeQueueNetwork(
        line,
        service_rate,
        {level: count for level, count in per_level.items() if count > 0},
    )
    return network.simulate(rng)


def open_line_stopping_time(
    customers: int,
    line_length: int,
    service_rate: float,
    rng: np.random.Generator,
    *,
    arrival_rate: float | None = None,
) -> float:
    """Stopping time of the open Jackson line of Lemma 7.

    All ``customers`` start outside the system and enter the farthest queue as
    a Poisson process of rate ``λ = μ / 2`` (by default); each then traverses
    ``line_length`` M/M/1 queues.  The returned value is the time at which the
    last customer leaves the first queue — the quantity bounded by
    ``O((k + l_max + log n) / μ)`` in Lemma 7.

    The simulation feeds each queue's departure process as the next queue's
    arrival process using the FCFS recursion, which is exact for a tandem line
    with unlimited buffers.
    """
    if customers < 1:
        raise SimulationError(f"customers must be positive, got {customers}")
    if line_length < 1:
        raise SimulationError(f"line_length must be positive, got {line_length}")
    if service_rate <= 0:
        raise SimulationError(f"service rate must be positive, got {service_rate}")
    lam = service_rate / 2.0 if arrival_rate is None else arrival_rate
    if lam <= 0:
        raise SimulationError(f"arrival rate must be positive, got {lam}")
    interarrivals = rng.exponential(scale=1.0 / lam, size=customers)
    arrivals = np.cumsum(interarrivals)
    for _ in range(line_length):
        services = exponential_service_times(customers, service_rate, rng)
        arrivals = departure_times(arrivals, services)
    return float(arrivals[-1])
