"""Integration tests: the paper's theorems hold *in shape* at small scale.

These are the executable versions of the claims listed in Table 1, run at
sizes small enough for CI on the engine the rule picks (the event engine
is bit-identical to the sequential one per seed).  They check
bounded ratios against the closed-form bounds and the qualitative orderings
(who wins on which topology), never the asymptotic constants.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import (
    constant_degree_upper_bound,
    fit_power_law,
    tag_with_brr_upper_bound,
    uniform_ag_upper_bound,
)
from repro.campaigns import get_campaign, run_campaign
from repro.core import SimulationConfig, TimeModel
from repro.graphs import (
    barbell_graph,
    diameter,
    line_graph,
    max_degree,
    ring_graph,
)
from repro.experiments import all_to_all_placement, run_trials_parallel, spread_placement
from repro.scenarios import SpanningTreeFactory, TagFactory, UniformGossipFactory
from repro.store import ResultStore


def _placement(graph, k):
    n = graph.number_of_nodes()
    return all_to_all_placement(graph) if k >= n else spread_placement(graph, k)


def ag_factory(graph, k, config):
    """Uniform AG with ``min(k, n)`` messages; the factory type picks the event engine."""
    k = min(k, graph.number_of_nodes())
    return UniformGossipFactory(config.field_size, k, 2, _placement(graph, k), config)


def tag_factory(graph, k, config):
    """TAG + B_RR rooted at node 0; the factory type picks the event engine."""
    k = min(k, graph.number_of_nodes())
    return TagFactory(
        config.field_size, k, 2, _placement(graph, k), config,
        SpanningTreeFactory("brr", root=0),
    )


class TestTheorem1Shape:
    """Uniform AG stays below a constant multiple of (k + log n + D)Δ."""

    @pytest.mark.parametrize("time_model", [TimeModel.SYNCHRONOUS, TimeModel.ASYNCHRONOUS])
    @pytest.mark.parametrize("builder, n", [(line_graph, 12), (ring_graph, 12),
                                            (barbell_graph, 12)])
    def test_measured_below_bound(self, builder, n, time_model):
        graph = builder(n)
        actual_n = graph.number_of_nodes()
        config = SimulationConfig(time_model=time_model, max_rounds=200_000)
        stats = run_trials_parallel(
            graph, ag_factory(graph, actual_n, config), config, trials=3, seed=11, jobs=1
        )
        bound = uniform_ag_upper_bound(
            actual_n, actual_n, diameter(graph), max_degree(graph)
        )
        assert stats.whp <= bound  # the theorem's constants are generous


class TestTheorem3Shape:
    """On constant-degree graphs the stopping time grows linearly in k and in D."""

    def test_linear_growth_in_k_on_the_ring(self):
        graph = ring_graph(12)
        config = SimulationConfig(max_rounds=100_000)
        ks = [3, 6, 12]
        means = []
        for k in ks:
            stats = run_trials_parallel(
                graph, ag_factory(graph, k, config), config, trials=3, seed=13, jobs=1
            )
            means.append(stats.mean)
            assert stats.whp <= 6 * constant_degree_upper_bound(k, diameter(graph))
        assert means[0] <= means[1] <= means[2]

    def test_sublinear_in_n_for_fixed_k_is_impossible_below_diameter(self):
        """The stopping time must grow at least like the diameter on the line."""
        config = SimulationConfig(max_rounds=100_000)
        sizes = [8, 16, 24]
        means = []
        for n in sizes:
            graph = line_graph(n)
            stats = run_trials_parallel(
                graph, ag_factory(graph, 2, config), config, trials=3, seed=17, jobs=1
            )
            means.append(stats.mean)
            assert stats.mean >= diameter(graph) / 2
        assert means[-1] > means[0]


class TestTheorem4And5Shape:
    """TAG + B_RR is Θ(n) for k = n on any graph, including the barbell."""

    def test_tag_brr_linear_in_n_on_barbell(self):
        config = SimulationConfig(max_rounds=200_000)
        sizes = [8, 12, 16, 20]
        means = []
        for n in sizes:
            graph = barbell_graph(n)
            stats = run_trials_parallel(
                graph, tag_factory(graph, n, config), config, trials=3, seed=19, jobs=1
            )
            means.append(stats.mean)
            assert stats.whp <= 3 * tag_with_brr_upper_bound(n, n)
        fit = fit_power_law(sizes, means)
        # Θ(n): the growth exponent should be close to 1 (allow noise at small n).
        assert 0.5 <= fit.exponent <= 1.6

    def test_tag_beats_uniform_ag_on_barbell(self):
        """The headline speed-up: on the barbell TAG wins once n is past the
        small-constant regime, and its advantage grows with n (the paper's
        speed-up ratio is Θ(n) asymptotically)."""
        config = SimulationConfig(max_rounds=400_000)
        gaps = []
        for n in (12, 24):
            graph = barbell_graph(n)
            uniform = run_trials_parallel(
                graph, ag_factory(graph, n, config), config, trials=2, seed=23, jobs=1
            )
            tag = run_trials_parallel(
                graph, tag_factory(graph, n, config), config, trials=2, seed=23, jobs=1
            )
            gaps.append(uniform.mean / tag.mean)
        assert gaps[-1] > 1.0  # TAG is faster at the larger size
        assert gaps[-1] > gaps[0]  # and the advantage grows with n


class TestUniformAgBarbellScaling:
    """Uniform AG on the barbell scales super-linearly in n (the Ω(n²) regime)."""

    def test_superlinear_growth(self):
        config = SimulationConfig(max_rounds=400_000)
        sizes = [8, 12, 16, 20]
        means = []
        for n in sizes:
            graph = barbell_graph(n)
            stats = run_trials_parallel(
                graph, ag_factory(graph, n, config), config, trials=2, seed=29, jobs=1
            )
            means.append(stats.mean)
        fit = fit_power_law(sizes, means)
        assert fit.exponent > 1.2  # clearly super-linear, heading towards 2


class TestBoundsCampaign:
    def test_theorem1_ratios_stay_bounded(self, tmp_path):
        result = run_campaign(
            get_campaign("bounds"), store=ResultStore(tmp_path), trials=1
        )
        assert all(outcome.stats.trials == 1 for outcome in result.outcomes)
        [e1] = [
            artifact for artifact in result.artifacts
            if artifact.artifact.title.startswith("E1-")
        ]
        assert len(e1.rows) == 4
        assert all(row["ratio(theorem1)"] <= 1.5 for row in e1.rows)
