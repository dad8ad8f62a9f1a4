"""Tests for per-round progress metrics (rank evolution, completion curves)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import ProgressRecorder, rounds_to_fraction_complete
from repro.core import SimulationConfig, TimeModel
from repro.errors import AnalysisError
from repro.gf import GF
from repro.gossip import GossipEngine
from repro.graphs import line_graph, ring_graph
from repro.protocols import AlgebraicGossip, RoundRobinBroadcastTree, TagProtocol
from repro.rlnc import Generation
from repro.experiments import all_to_all_placement


def make_recorded_run(graph, k, config, seed=0, protocol="uniform"):
    rng = np.random.default_rng(seed)
    generation = Generation.random(GF(config.field_size), k, 2, rng)
    placement = all_to_all_placement(graph)
    if protocol == "uniform":
        inner = AlgebraicGossip(graph, generation, placement, config, rng)
    else:
        inner = TagProtocol(graph, generation, placement, config, rng,
                            lambda g, r: RoundRobinBroadcastTree(g, 0, r))
    recorder = ProgressRecorder(inner)
    result = GossipEngine(graph, recorder, config, rng).run()
    return recorder, result


class TestProgressRecorder:
    def test_requires_rank_reporting_protocol(self, rng):
        # A standalone spanning tree reports no rank (it has no rank_of).
        tree = RoundRobinBroadcastTree(ring_graph(6), 0, rng)
        with pytest.raises(AnalysisError):
            ProgressRecorder(tree)

    def test_snapshot_per_round_synchronous(self, sync_config):
        graph = ring_graph(8)
        recorder, result = make_recorded_run(graph, 8, sync_config, seed=1)
        assert len(recorder.snapshots) == result.rounds
        assert recorder.snapshots[-1].min_rank == 8
        assert recorder.snapshots[-1].completed_nodes == 8
        assert recorder.metadata()["progress_snapshots"] == result.rounds

    def test_snapshots_in_asynchronous_model(self):
        graph = ring_graph(6)
        config = SimulationConfig(time_model=TimeModel.ASYNCHRONOUS, max_rounds=50_000)
        recorder, result = make_recorded_run(graph, 6, config, seed=2)
        # One snapshot per *completed* round (the final partial round may not be sampled).
        assert result.rounds - 1 <= len(recorder.snapshots) <= result.rounds

    def test_rank_curves_are_monotone(self, sync_config):
        graph = line_graph(10)
        recorder, _ = make_recorded_run(graph, 10, sync_config, seed=3)
        for statistic in ("min", "median", "max"):
            curve = recorder.rank_curve(statistic)
            values = [value for _, value in curve]
            assert all(a <= b for a, b in zip(values, values[1:])), statistic
        completion = recorder.completion_curve()
        counts = [count for _, count in completion]
        assert all(a <= b for a, b in zip(counts, counts[1:]))

    def test_unknown_statistic_rejected(self, sync_config):
        graph = ring_graph(6)
        recorder, _ = make_recorded_run(graph, 6, sync_config, seed=4)
        with pytest.raises(AnalysisError):
            recorder.rank_curve("mode")

    def test_works_with_tag(self, sync_config):
        graph = ring_graph(8)
        recorder, result = make_recorded_run(graph, 8, sync_config, seed=5, protocol="tag")
        assert result.completed
        assert recorder.snapshots[-1].min_rank == 8

    def test_as_rows(self, sync_config):
        graph = ring_graph(6)
        recorder, _ = make_recorded_run(graph, 6, sync_config, seed=6)
        rows = recorder.as_rows()
        assert rows[0]["round"] == 1
        assert set(rows[0]) == {"round", "min_rank", "median_rank", "max_rank", "completed_nodes"}


class TestFractionComplete:
    def test_fraction_thresholds(self, sync_config):
        graph = ring_graph(10)
        recorder, result = make_recorded_run(graph, 10, sync_config, seed=7)
        half = rounds_to_fraction_complete(recorder, 0.5)
        full = rounds_to_fraction_complete(recorder, 1.0)
        assert half is not None and full is not None
        assert half <= full == result.rounds

    def test_invalid_fraction(self, sync_config):
        graph = ring_graph(6)
        recorder, _ = make_recorded_run(graph, 6, sync_config, seed=8)
        with pytest.raises(AnalysisError):
            rounds_to_fraction_complete(recorder, 0.0)
        with pytest.raises(AnalysisError):
            rounds_to_fraction_complete(recorder, 1.5)

    def test_empty_recorder_rejected(self, sync_config, rng):
        graph = ring_graph(6)
        generation = Generation.random(GF(16), 6, 2, rng)
        inner = AlgebraicGossip(graph, generation, all_to_all_placement(graph), sync_config, rng)
        recorder = ProgressRecorder(inner)
        with pytest.raises(AnalysisError):
            rounds_to_fraction_complete(recorder, 0.5)
