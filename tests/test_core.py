"""Unit tests for the core kernel: config, results and RNG streams."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    GossipAction,
    RunResult,
    SimulationConfig,
    StoppingTimeStats,
    TimeModel,
    aggregate_results,
    derive_rng,
    derive_seed,
)
from repro.errors import AnalysisError, ConfigurationError


class TestSimulationConfig:
    def test_defaults(self):
        config = SimulationConfig()
        assert config.field_size == 16
        assert config.is_synchronous
        assert config.action is GossipAction.EXCHANGE

    def test_string_enums_coerced(self):
        config = SimulationConfig(time_model="asynchronous", action="push")
        assert config.time_model is TimeModel.ASYNCHRONOUS
        assert config.action is GossipAction.PUSH
        assert not config.is_synchronous

    @pytest.mark.parametrize(
        "kwargs",
        [dict(field_size=1), dict(field_size=6), dict(payload_length=0), dict(max_rounds=0)],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            SimulationConfig(**kwargs)

    def test_replace(self):
        config = SimulationConfig()
        replaced = config.replace(field_size=2)
        assert replaced.field_size == 2
        assert config.field_size == 16

    def test_config_is_hashable(self):
        a = SimulationConfig(churn=[[1, 2, 3]])
        b = SimulationConfig(churn=((1, 2, 3),))
        assert a == b
        assert hash(a) == hash(b)


class TestRunResult:
    def make(self, **overrides):
        defaults = dict(
            rounds=10,
            timeslots=100,
            completed=True,
            n=10,
            k=5,
            completion_rounds={i: i for i in range(10)},
            messages_sent=200,
            helpful_messages=50,
        )
        defaults.update(overrides)
        return RunResult(**defaults)

    def test_summary_and_properties(self):
        result = self.make()
        assert result.last_completion_round == 9
        assert result.helpful_fraction == pytest.approx(0.25)
        assert "completed after 10 rounds" in result.summary()

    def test_incomplete_result(self):
        result = self.make(completed=False, completion_rounds={})
        assert result.last_completion_round is None
        assert "INCOMPLETE" in result.summary()

    def test_zero_messages(self):
        result = self.make(messages_sent=0, helpful_messages=0)
        assert result.helpful_fraction == 0.0


class TestStoppingTimeStats:
    def test_statistics(self):
        stats = StoppingTimeStats(samples=(10.0, 20.0, 30.0, 40.0))
        assert stats.mean == pytest.approx(25.0)
        assert stats.median == pytest.approx(25.0)
        assert stats.minimum == 10.0
        assert stats.maximum == 40.0
        assert stats.trials == 4
        assert stats.quantile(0.5) == pytest.approx(25.0)
        assert stats.whp >= stats.median
        assert "mean=25.0" in stats.summary()

    def test_single_sample(self):
        stats = StoppingTimeStats(samples=(7.0,))
        assert stats.std == 0.0
        assert stats.stderr == 0.0

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            StoppingTimeStats(samples=())

    def test_bad_quantile_rejected(self):
        stats = StoppingTimeStats(samples=(1.0, 2.0))
        with pytest.raises(AnalysisError):
            stats.quantile(1.5)

    def test_aggregate_results(self):
        results = [
            RunResult(rounds=r, timeslots=r * 10, completed=True, n=10, k=5)
            for r in (5, 6, 7)
        ] + [RunResult(rounds=99, timeslots=990, completed=False, n=10, k=5)]
        stats = aggregate_results(results)
        assert stats.trials == 3
        assert stats.incomplete_trials == 1
        timeslot_stats = aggregate_results(results, use_rounds=False)
        assert timeslot_stats.mean == pytest.approx(60.0)

    def test_aggregate_all_incomplete_raises(self):
        results = [RunResult(rounds=1, timeslots=1, completed=False, n=2, k=1)]
        with pytest.raises(AnalysisError):
            aggregate_results(results)


class TestRng:
    def test_derive_seed_is_stable_and_stream_sensitive(self):
        assert derive_seed(1, "a") == derive_seed(1, "a")
        assert derive_seed(1, "a") != derive_seed(1, "b")
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_derive_rng_streams_independent(self):
        a = derive_rng(7, "x").integers(0, 1_000_000, size=5)
        b = derive_rng(7, "y").integers(0, 1_000_000, size=5)
        assert not np.array_equal(a, b)

