"""Tests for the workload placements and the per-scenario analytic bounds."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.experiments import (
    adversarial_far_placement,
    all_to_all_placement,
    random_placement,
    single_source_placement,
    spread_placement,
    validate_placement,
)
from repro.graphs import line_graph, ring_graph
from repro.scenarios import ScenarioSpec, default_scenario_config


class TestWorkloads:
    def test_all_to_all(self):
        graph = ring_graph(6)
        placement = all_to_all_placement(graph)
        assert sorted(placement) == list(range(6))
        assert sorted(i for msgs in placement.values() for i in msgs) == list(range(6))
        validate_placement(graph, 6, placement)

    def test_spread_uses_distinct_nodes(self):
        graph = line_graph(10)
        placement = spread_placement(graph, 4)
        assert len(placement) == 4
        validate_placement(graph, 4, placement)
        with pytest.raises(SimulationError):
            spread_placement(graph, 11)

    def test_single_source(self):
        graph = line_graph(8)
        placement = single_source_placement(graph, 5)
        assert placement == {0: [0, 1, 2, 3, 4]}
        other = single_source_placement(graph, 2, source=3)
        assert list(other) == [3]
        with pytest.raises(SimulationError):
            single_source_placement(graph, 2, source=55)

    def test_random_placement_covers_all_messages(self, rng):
        graph = ring_graph(6)
        placement = random_placement(graph, 10, rng)
        validate_placement(graph, 10, placement)

    def test_adversarial_far_placement(self):
        graph = line_graph(10)
        placement = adversarial_far_placement(graph, 3, target=0)
        # The three messages go to the three nodes farthest from node 0.
        assert set(placement) == {9, 8, 7}
        with pytest.raises(SimulationError):
            adversarial_far_placement(graph, 3, target=99)

    def test_validate_placement_detects_problems(self):
        graph = ring_graph(4)
        with pytest.raises(SimulationError):
            validate_placement(graph, 2, {0: [0]})
        with pytest.raises(SimulationError):
            validate_placement(graph, 2, {9: [0, 1]})
        with pytest.raises(SimulationError):
            validate_placement(graph, 2, {0: [0, 7]})


class TestScenarioBounds:
    def test_uniform_scenario_has_bounds(self):
        scenario = ScenarioSpec(topology="ring", n=8, k=4).materialize()
        assert scenario.graph.number_of_nodes() == 8
        assert "theorem1" in scenario.bounds
        assert "theorem3" in scenario.bounds  # ring is constant degree
        process = scenario.build_process(np.random.default_rng(0))
        assert process.generation.k == 4

    def test_dense_graph_has_no_theorem3_bound(self):
        scenario = ScenarioSpec(topology="complete", n=16, k=4).materialize()
        assert "theorem3" not in scenario.bounds

    def test_tag_scenarios_with_every_tree(self):
        for stp in ("brr", "uniform_broadcast", "bfs_oracle", "is"):
            scenario = ScenarioSpec(
                topology="barbell", n=8, k=8, protocol="tag", spanning_tree=stp
            ).materialize()
            process = scenario.build_process(np.random.default_rng(0))
            assert process.metadata()["protocol"] == "TAG"
            assert {"theorem4", "tag_brr", "lower"} <= set(scenario.bounds)

    def test_default_scenario_config(self):
        config = default_scenario_config()
        assert config.is_synchronous
        assert config.field_size == 16
