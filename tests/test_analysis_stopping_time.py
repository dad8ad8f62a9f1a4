"""Tests for the trial runner pair on a bare triple, and the scaling fits."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import fit_linear, fit_power_law
from repro.core import SimulationConfig
from repro.errors import AnalysisError
from repro.experiments import all_to_all_placement, measure_protocol, run_trials
from repro.gf import GF
from repro.graphs import ring_graph
from repro.protocols import AlgebraicGossip
from repro.rlnc import Generation


def ag_factory(k=None):
    def factory(graph, rng):
        n = graph.number_of_nodes()
        kk = n if k is None else k
        generation = Generation.random(GF(16), kk, 2, rng)
        config = SimulationConfig(max_rounds=50_000)
        return AlgebraicGossip(graph, generation, all_to_all_placement(graph), config, rng)

    return factory


class TestMeasurement:
    def test_measure_protocol_returns_independent_trials(self):
        graph = ring_graph(8)
        config = SimulationConfig(max_rounds=50_000)
        results = measure_protocol(graph, ag_factory(), config, trials=4, seed=1)
        assert len(results) == 4
        assert all(result.completed for result in results)
        assert len({result.rounds for result in results}) >= 1

    def test_run_trials_aggregates(self):
        graph = ring_graph(8)
        config = SimulationConfig(max_rounds=50_000)
        stats = run_trials(graph, ag_factory(), config, trials=4, seed=1)
        assert stats.trials == 4
        assert stats.mean > 0

    def test_measurement_is_reproducible(self):
        graph = ring_graph(8)
        config = SimulationConfig(max_rounds=50_000)
        a = run_trials(graph, ag_factory(), config, trials=3, seed=7)
        b = run_trials(graph, ag_factory(), config, trials=3, seed=7)
        assert a.samples == b.samples

    def test_invalid_trial_count(self):
        graph = ring_graph(8)
        config = SimulationConfig()
        with pytest.raises(AnalysisError):
            measure_protocol(graph, ag_factory(), config, trials=0)


class TestFits:
    def test_power_law_recovers_exponent(self):
        xs = np.array([8, 16, 32, 64, 128])
        ys = 3.0 * xs**2.0
        fit = fit_power_law(xs, ys)
        assert fit.exponent == pytest.approx(2.0, abs=0.01)
        assert fit.coefficient == pytest.approx(3.0, rel=0.05)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-6)
        assert fit.predict(256) == pytest.approx(3.0 * 256**2, rel=0.05)

    def test_power_law_with_noise_still_close(self, rng):
        xs = np.array([8, 16, 32, 64, 128, 256])
        ys = 5.0 * xs**1.5 * rng.uniform(0.9, 1.1, size=xs.size)
        fit = fit_power_law(xs, ys)
        assert fit.exponent == pytest.approx(1.5, abs=0.15)

    def test_linear_fit(self):
        xs = np.array([1, 2, 3, 4])
        ys = 2.0 * xs + 1.0
        fit = fit_linear(xs, ys)
        assert fit.slope == pytest.approx(2.0)
        assert fit.intercept == pytest.approx(1.0)
        assert fit.predict(10) == pytest.approx(21.0)

    def test_fit_validation(self):
        with pytest.raises(AnalysisError):
            fit_power_law([1], [1])
        with pytest.raises(AnalysisError):
            fit_power_law([1, 2], [0, 1])
        with pytest.raises(AnalysisError):
            fit_linear([1], [2])
        with pytest.raises(AnalysisError):
            fit_linear([1, 2], [2])
