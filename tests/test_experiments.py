"""Tests for the experiments layer: workloads, named experiments and reporting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import AnalysisError, SimulationError
from repro.experiments import (
    EXPERIMENTS,
    Experiment,
    adversarial_far_placement,
    all_to_all_placement,
    default_config,
    format_comparison,
    format_experiment_report,
    format_markdown_table,
    random_placement,
    register_experiment,
    run_experiment,
    single_source_placement,
    spread_placement,
    tag_case,
    uniform_ag_case,
    validate_placement,
)
from repro.graphs import line_graph, ring_graph


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


class TestCaseBuilders:
    def test_uniform_ag_case_has_bounds(self):
        case = uniform_ag_case("ring", 8, 4)
        assert case.graph.number_of_nodes() == 8
        assert "theorem1" in case.bounds
        assert "theorem3" in case.bounds  # ring is constant degree
        process = case.protocol_factory(case.graph, np.random.default_rng(0))
        assert process.generation.k == 4

    def test_dense_graph_case_has_no_theorem3_bound(self):
        case = uniform_ag_case("complete", 16, 4)
        assert "theorem3" not in case.bounds

    def test_tag_case_builders(self):
        for stp in ("brr", "uniform_broadcast", "bfs_oracle", "is"):
            case = tag_case("barbell", 8, 8, spanning_tree=stp)
            process = case.protocol_factory(case.graph, np.random.default_rng(0))
            assert process.metadata()["protocol"] == "TAG"

    def test_tag_case_unknown_protocol(self):
        with pytest.raises(AnalysisError):
            tag_case("barbell", 8, 8, spanning_tree="mystery")

    def test_default_config(self):
        config = default_config()
        assert config.is_synchronous
        assert config.field_size == 16


class TestExperimentRegistry:
    def test_builtin_experiments_registered(self):
        assert "E1-uniform-ag" in EXPERIMENTS
        assert "E4-tag-omega-n" in EXPERIMENTS
        assert "E8-barbell" in EXPERIMENTS

    def test_unknown_experiment(self):
        with pytest.raises(AnalysisError):
            run_experiment("does-not-exist")

    def test_run_small_experiment(self):
        result = run_experiment("E2-constant-degree", trials=1, seed=0)
        assert len(result.points) == 4
        assert result.rows[0]["k"] == 2
        assert all(row["p95_rounds"] > 0 for row in result.rows)

    def test_register_custom_experiment(self):
        experiment = Experiment(
            experiment_id="custom-test",
            description="tiny",
            build_cases=lambda: [uniform_ag_case("ring", 6, 3)],
            bound_names=("theorem1",),
            trials=1,
        )
        register_experiment(experiment)
        try:
            result = run_experiment("custom-test")
            assert len(result.points) == 1
            assert "ratio(theorem1)" in result.rows[0]
        finally:
            EXPERIMENTS.pop("custom-test", None)


class TestReporting:
    def test_markdown_table(self):
        rows = [{"x": 1, "y": 2}, {"x": 3, "y": 4}]
        text = format_markdown_table(rows)
        assert text.splitlines()[0] == "| x | y |"
        assert "| 3 | 4 |" in text
        with pytest.raises(AnalysisError):
            format_markdown_table([])

    def test_experiment_report_text_and_markdown(self):
        rows = [{"x": 1}]
        text = format_experiment_report("Title", rows, notes=["note one"])
        assert "Title" in text and "note one" in text
        markdown = format_experiment_report("Title", rows, notes=["note"], markdown=True)
        assert markdown.startswith("### Title")

    def test_comparison_line(self):
        line = format_comparison("TAG", 30.0, "Uniform AG", 90.0)
        assert "3.0x faster" in line
        with pytest.raises(AnalysisError):
            format_comparison("a", 0.0, "b", 1.0)
