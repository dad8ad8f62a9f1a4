"""Tests for the gossip → queueing reduction of Theorem 1 (experiment E7)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SimulationConfig, TimeModel
from repro.errors import SimulationError, TopologyError
from repro.gf import GF
from repro.gossip import GossipEngine
from repro.graphs import SpanningTree, diameter, grid_graph, line_graph, ring_graph
from repro.protocols import AlgebraicGossip
from repro.queueing import (
    QueueingReduction,
    TreeQueueNetwork,
    line_tree,
    service_probability,
    single_level_scheduling_stopping_time,
    worst_case_service_probability,
)
from repro.rlnc import Generation
from repro.experiments import all_to_all_placement


class TestServiceProbability:
    def test_formula(self):
        assert service_probability(2, 4) == pytest.approx(0.5 / 4)
        assert service_probability(16, 1) == pytest.approx(15 / 16)
        assert worst_case_service_probability(10) == pytest.approx(1 / 20)

    def test_validation(self):
        with pytest.raises(SimulationError):
            service_probability(1, 4)
        with pytest.raises(SimulationError):
            service_probability(2, 0)


class TestReductionConstruction:
    def test_rates_per_time_model(self):
        graph = ring_graph(8)  # n = 8, Δ = 2
        async_reduction = QueueingReduction(graph, k=4, q=2, time_model=TimeModel.ASYNCHRONOUS)
        sync_reduction = QueueingReduction(graph, k=4, q=2, time_model=TimeModel.SYNCHRONOUS)
        assert async_reduction.service_rate() == pytest.approx(1 / (2 * 8 * 2))
        assert sync_reduction.service_rate() == pytest.approx(1 / (2 * 2))

    def test_fixed_partner_removes_delta(self):
        graph = grid_graph(16)  # Δ = 4
        with_delta = QueueingReduction(graph, k=4, time_model=TimeModel.SYNCHRONOUS)
        fixed = QueueingReduction(graph, k=4, time_model=TimeModel.SYNCHRONOUS, fixed_partner=True)
        assert fixed.service_rate() == pytest.approx(with_delta.service_rate() * 4)

    def test_bfs_tree_depth_at_most_diameter(self):
        graph = grid_graph(16)
        reduction = QueueingReduction(graph, k=4)
        tree = reduction.bfs_tree(0)
        assert tree.depth <= diameter(graph)

    def test_invalid_k(self):
        with pytest.raises(SimulationError):
            QueueingReduction(ring_graph(6), k=0)

    def test_customer_placement_counts(self):
        graph = line_graph(6)
        reduction = QueueingReduction(graph, k=4)
        tree = reduction.bfs_tree(0)
        placement = reduction.customer_placement(tree)
        assert sum(placement.values()) == 4
        # Explicit per-node counts are also honoured.
        explicit = reduction.customer_placement(tree, {5: 2, 0: 1})
        assert explicit == {5: 2}  # messages at the root need no transport
        with pytest.raises(SimulationError):
            reduction.customer_placement(tree, {99: 1})

    def test_unknown_nodes_refused(self):
        tree = SpanningTree(root=0, parent={1: 0, 2: 1})
        reduction = QueueingReduction(line_graph(3), k=2)
        with pytest.raises(SimulationError, match="message placed at unknown node 7"):
            reduction.customer_placement(tree, {1: 1, 7: 1})
        with pytest.raises(TopologyError, match="node 7 is not part of the tree"):
            single_level_scheduling_stopping_time(
                tree, 1.0, {2: 1, 7: 1}, np.random.default_rng(0)
            )

    def test_describe_mentions_bound(self):
        graph = ring_graph(8)
        reduction = QueueingReduction(graph, k=4)
        text = reduction.describe()
        assert "service rate" in text
        assert "O((k + log n + D)" in text


class TestReductionPredictions:
    def test_analytic_and_simulated_predictions(self, rng):
        graph = grid_graph(9)
        reduction = QueueingReduction(graph, k=5, q=2, time_model=TimeModel.SYNCHRONOUS)
        prediction = reduction.predict_for_root(0, rng, trials=100)
        assert prediction.analytic_bound > 0
        assert prediction.simulated_whp is not None
        # The closed-form bound must upper-bound the simulated queueing system.
        assert prediction.simulated_whp <= prediction.analytic_bound

    def test_simulation_requires_rng(self):
        graph = ring_graph(6)
        reduction = QueueingReduction(graph, k=3)
        with pytest.raises(SimulationError):
            reduction.predict_for_root(0, None, trials=10)

    def test_prediction_upper_bounds_real_gossip_on_constant_degree_graph(self):
        """The whole point of Theorem 1: the queueing bound dominates the real
        synchronous uniform-AG stopping time (here checked on a small ring)."""
        graph = ring_graph(8)
        n = graph.number_of_nodes()
        config = SimulationConfig(field_size=2, time_model=TimeModel.SYNCHRONOUS,
                                  max_rounds=50_000)
        measured = []
        for seed in range(3):
            rng = np.random.default_rng(seed)
            generation = Generation.random(GF(2), n, 2, rng)
            process = AlgebraicGossip(graph, generation, all_to_all_placement(graph), config, rng)
            measured.append(GossipEngine(graph, process, config, rng).run().rounds)
        reduction = QueueingReduction(graph, k=n, q=2, time_model=TimeModel.SYNCHRONOUS)
        assert max(measured) <= reduction.predicted_rounds_upper_bound()

    def test_asynchronous_bound_converted_to_rounds(self):
        graph = ring_graph(8)
        sync_bound = QueueingReduction(
            graph, k=8, time_model=TimeModel.SYNCHRONOUS
        ).predicted_rounds_upper_bound()
        async_bound = QueueingReduction(
            graph, k=8, time_model=TimeModel.ASYNCHRONOUS
        ).predicted_rounds_upper_bound()
        # After dividing timeslots by n, both bounds are the same expression.
        assert async_bound == pytest.approx(sync_bound)


# ----------------------------------------------------------------------
# Depths in one pass: the same placements and levels as walking each node
# ----------------------------------------------------------------------


@st.composite
def shuffled_trees(draw) -> SpanningTree:
    """A random recursive tree or a path on 1–60 nodes, labels shuffled."""
    n = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        parents = [i - 1 for i in range(1, n)]
    else:
        parents = [int(rng.integers(0, i)) for i in range(1, n)]
    labels = rng.permutation(n).tolist()
    parent = {labels[i]: labels[p] for i, p in enumerate(parents, start=1)}
    return SpanningTree(root=labels[0], parent=parent)


def _walked_placement(tree: SpanningTree, k: int) -> dict[int, int]:
    """The default placement, each node's depth walked to the root."""
    ordered = sorted(tree.parent, key=tree.depth_of, reverse=True)
    placement = dict.fromkeys(ordered[:k], 1)
    if k > len(ordered) and ordered:
        placement[ordered[0]] += k - len(ordered)
    return placement


@settings(max_examples=60, deadline=None)
@given(
    tree=shuffled_trees(),
    k=st.integers(1, 70),
    placed=st.lists(
        st.tuples(st.integers(0, 59), st.integers(1, 3)), min_size=1, max_size=8
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_one_depth_pass_matches_walking_every_node(tree, k, placed, seed):
    """Both placements and the per-level line of the single-level scheduling
    equal the walk-by-walk versions, on deep paths and bushy trees alike."""
    reduction = QueueingReduction(line_graph(2), k=k)
    assert reduction.customer_placement(tree) == _walked_placement(tree, k)
    customers = {node % tree.size: count for node, count in placed}
    explicit = {
        node: count for node, count in customers.items() if node != tree.root
    } or {tree.nodes[-1]: 1}
    assert reduction.customer_placement(tree, customers) == explicit
    per_level = {}
    for node, count in customers.items():
        level = tree.depth_of(node)
        per_level[level] = per_level.get(level, 0) + count
    walked = TreeQueueNetwork(line_tree(tree.depth + 1), 0.5, per_level).simulate(
        np.random.default_rng(seed)
    )
    assert single_level_scheduling_stopping_time(
        tree, 0.5, customers, np.random.default_rng(seed)
    ) == walked
