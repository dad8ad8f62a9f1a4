"""Tests for node churn and heterogeneous activation (repro.gossip.dynamics).

Covers the semantics of the two new scenario axes and the contract that
matters most: the event-driven engine the trial runners pick for uniform
algebraic gossip and TAG is **bit-identical** to the sequential engine under
every knob, reset-mode churn included.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SimulationConfig, TimeModel
from repro.errors import ConfigurationError, SimulationError
from repro.experiments import measure_protocol
from repro.gf import GF
from repro.gossip import GossipEngine, NodeDynamics
from repro.gossip.engine import GossipProcess
from repro.graphs import ring_graph
from repro.protocols import AlgebraicGossip
from repro.rlnc import Generation, encode_from_decoder
from repro.scenarios import ScenarioSpec, default_scenario_config

_SYNC = default_scenario_config()
_ASYNC = default_scenario_config(time_model=TimeModel.ASYNCHRONOUS)


def _signature(results):
    return [
        (r.rounds, r.timeslots, r.completed, r.messages_sent, r.helpful_messages,
         dict(r.completion_rounds), dict(r.metadata))
        for r in results
    ]


def _measure_both(spec, trials=4, seed=7):
    scenario = spec.materialize()
    sequential = measure_protocol(
        scenario.graph, scenario.protocol_factory, scenario.config,
        trials=trials, seed=seed, engine="scalar",
    )
    fast = scenario.measure(trials=trials, seed=seed)
    return sequential, fast


class TestConfigValidation:
    def test_churn_rounds_validated(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(churn=((0, 0, 5),))
        with pytest.raises(ConfigurationError):
            SimulationConfig(churn=((0, 5, 5),))
        with pytest.raises(ConfigurationError):
            SimulationConfig(churn=((-1, 1, 5),))

    def test_malformed_churn_and_rates_raise_config_errors(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(churn=((1, 2),))  # not a triple
        with pytest.raises(ConfigurationError):
            SimulationConfig(churn=(("a", 1, 2),))
        with pytest.raises(ConfigurationError):
            SimulationConfig(
                time_model=TimeModel.ASYNCHRONOUS, activation_rates=("x",)
            )
        with pytest.raises(ConfigurationError):
            ScenarioSpec(config="not a config")

    def test_churn_reset_requires_churn(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(churn_reset=True)

    def test_activation_rates_positive_finite(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(
                time_model=TimeModel.ASYNCHRONOUS, activation_rates=(1.0, 0.0)
            )
        with pytest.raises(ConfigurationError):
            SimulationConfig(
                time_model=TimeModel.ASYNCHRONOUS, activation_rates=(1.0, float("inf"))
            )

    def test_activation_rates_rejected_under_synchronous(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(activation_rates=(1.0, 2.0))

    def test_churn_unknown_node_rejected_by_engine(self):
        spec = ScenarioSpec(topology="ring", n=8, config=_SYNC.replace(churn=((99, 1, 5),)))
        scenario = spec.materialize()
        with pytest.raises(SimulationError):
            scenario.run_single()

    def test_rate_length_mismatch_rejected_by_engine(self):
        config = _ASYNC.replace(activation_rates=(1.0, 2.0))
        graph = ring_graph(8)
        rng = np.random.default_rng(0)
        generation = Generation.random(GF(16), 8, 2, rng)
        placement = {node: [node] for node in graph.nodes()}
        process = AlgebraicGossip(graph, generation, placement, config, rng)
        with pytest.raises(SimulationError):
            GossipEngine(graph, process, config, rng)


class TestNodeDynamics:
    def test_down_mask_and_intervals(self):
        config = SimulationConfig(churn=((1, 3, 6), (4, 2, 4)))
        dynamics = NodeDynamics(config, list(range(6)))
        assert not dynamics.is_down(1, 2)
        assert dynamics.is_down(1, 3) and dynamics.is_down(1, 5)
        assert not dynamics.is_down(1, 6)
        assert list(np.nonzero(dynamics.down_mask(3))[0]) == [1, 4]
        assert dynamics.crashes_at(3) == [1] and dynamics.crashes_at(2) == [4]

    def test_uniform_draw_matches_historical_stream(self):
        dynamics = NodeDynamics(SimulationConfig(), list(range(10)))
        a, b = np.random.default_rng(3), np.random.default_rng(3)
        draws = [dynamics.choose_wakeup(a, r) for r in range(1, 50)]
        reference = [int(b.integers(0, 10)) for _ in range(49)]
        assert draws == reference

    def test_all_down_returns_none(self):
        config = SimulationConfig(churn=tuple((node, 1, 5) for node in range(4)))
        dynamics = NodeDynamics(config, list(range(4)))
        assert dynamics.choose_wakeup(np.random.default_rng(0), 2) is None
        assert dynamics.choose_wakeup(np.random.default_rng(0), 6) is not None

    def test_weighted_draw_restricted_to_alive(self):
        config = SimulationConfig(
            time_model=TimeModel.ASYNCHRONOUS,
            churn=((0, 1, 100),),
            activation_rates=(1000.0, 1.0, 1.0),
        )
        dynamics = NodeDynamics(config, list(range(3)))
        rng = np.random.default_rng(1)
        draws = {dynamics.choose_wakeup(rng, 5) for _ in range(50)}
        assert 0 not in draws and draws <= {1, 2}

    def test_weighted_draw_follows_rates(self):
        config = SimulationConfig(
            time_model=TimeModel.ASYNCHRONOUS, activation_rates=(1.0, 999.0)
        )
        dynamics = NodeDynamics(config, [0, 1])
        rng = np.random.default_rng(2)
        draws = [dynamics.choose_wakeup(rng, 1) for _ in range(200)]
        assert draws.count(1) > 180


class TestChurnSemantics:
    def test_same_seed_same_stopping_time(self):
        spec = ScenarioSpec(
            topology="ring", n=10, config=_SYNC.replace(churn=((2, 2, 8), (7, 4, 9)))
        )
        first = spec.materialize().run(trials=3, seed=11)
        second = spec.materialize().run(trials=3, seed=11)
        assert first == second

    def test_churn_slows_dissemination_and_counts_drops(self):
        base = ScenarioSpec(topology="ring", n=10, config=_SYNC)
        churned = base.with_config(churn=((2, 1, 20),))
        calm = base.materialize().run_single()
        result = churned.materialize().run_single()
        assert result.metadata["churn_dropped_messages"] > 0
        assert result.rounds >= calm.rounds

    def test_down_node_blocks_its_unique_message(self):
        # Node 5 holds message 5 exclusively and is down for rounds 1..9:
        # nothing can finish before it comes back at round 10.
        spec = ScenarioSpec(
            topology="ring", n=8, config=_SYNC.replace(churn=((5, 1, 10),))
        )
        result = spec.materialize().run_single()
        assert result.completed
        assert result.rounds >= 10

    def test_never_returning_node_hits_round_limit(self):
        config = _SYNC.replace(
            churn=((5, 1, 1_000_000),), max_rounds=50, allow_incomplete=True
        )
        result = ScenarioSpec(topology="ring", n=8, config=config).materialize().run_single()
        assert not result.completed
        assert result.rounds == 50


class TestEngineEquivalence:
    """Scalar vs event bit-identity for the dynamics knob combinations."""

    CASES = {
        "sync-churn-uniform": ScenarioSpec(
            topology="ring", n=10, config=_SYNC.replace(churn=((2, 3, 8), (5, 1, 4)))
        ),
        "async-churn-uniform": ScenarioSpec(
            topology="ring", n=10, config=_ASYNC.replace(churn=((2, 3, 8), (5, 1, 4)))
        ),
        "async-hetero-uniform": ScenarioSpec(
            topology="ring", n=10,
            activation={"kind": "two_speed", "ratio": 4.0, "fast_fraction": 0.5},
            config=_ASYNC,
        ),
        "async-churn-hetero-uniform": ScenarioSpec(
            topology="ring", n=10,
            activation={"kind": "degree"},
            config=_ASYNC.replace(churn=((3, 2, 6),)),
        ),
        "sync-churn-tag": ScenarioSpec(
            topology="barbell", n=12, protocol="tag", spanning_tree="brr",
            config=_SYNC.replace(churn=((3, 2, 6),)),
        ),
        "async-churn-hetero-tag": ScenarioSpec(
            topology="barbell", n=12, protocol="tag", spanning_tree="is",
            activation={"kind": "two_speed", "ratio": 3.0, "fast_fraction": 0.25},
            config=_ASYNC.replace(churn=((3, 2, 6),)),
        ),
        "sync-churn-loss-uniform": ScenarioSpec(
            topology="ring", n=10,
            config=_SYNC.replace(churn=((2, 3, 8),), loss_probability=0.2),
        ),
        "sync-churn-loss-tag": ScenarioSpec(
            topology="grid", n=16, protocol="tag", spanning_tree="uniform_broadcast",
            config=_SYNC.replace(churn=((2, 3, 8),), loss_probability=0.2),
        ),
        "sync-reset-churn-tag": ScenarioSpec(
            topology="barbell", n=12, protocol="tag", spanning_tree="brr",
            config=_SYNC.replace(churn=((3, 2, 6), (8, 4, 9)), churn_reset=True),
        ),
        "async-reset-churn-tag": ScenarioSpec(
            topology="barbell", n=12, protocol="tag", spanning_tree="is",
            config=_ASYNC.replace(churn=((3, 2, 6),), churn_reset=True),
        ),
        "async-reset-churn-hetero-tag": ScenarioSpec(
            topology="barbell", n=12, protocol="tag", spanning_tree="bfs_oracle",
            activation={"kind": "degree"},
            config=_ASYNC.replace(churn=((3, 2, 6),), churn_reset=True),
        ),
    }

    @pytest.mark.parametrize("key", sorted(CASES))
    def test_bit_identical(self, key):
        sequential, fast = _measure_both(self.CASES[key])
        assert _signature(fast) == _signature(sequential)


class TestChurnReset:
    SPEC = ScenarioSpec(
        topology="ring", n=10,
        config=_SYNC.replace(churn=((2, 3, 9),), churn_reset=True),
    )

    def test_event_runner_matches_scalar(self):
        sequential, fast = _measure_both(self.SPEC, trials=3)
        assert _signature(fast) == _signature(sequential)

    def test_reset_loses_progress(self):
        # Same schedule, pause vs reset: the reset node rejoins with only its
        # initial message, so the reset run can never finish earlier.
        reset = self.SPEC.materialize().run(trials=5, seed=3)
        pause = self.SPEC.with_config(churn_reset=False).materialize().run(trials=5, seed=3)
        assert reset.mean >= pause.mean

    def test_reset_crash_clears_stale_completion_round(self):
        # Node 2 crashes at round 3 with reset semantics: whatever completion
        # it had earned before must be re-earned, so its recorded completion
        # round lies at/after the crash and the slowest node matches rounds.
        spec = ScenarioSpec(
            topology="complete", n=6,
            config=_SYNC.replace(churn=((2, 3, 5),), churn_reset=True),
        )
        result = spec.materialize().run_single()
        assert result.completed
        assert result.completion_rounds[2] >= 3
        assert result.last_completion_round == result.rounds

    def test_on_crash_resets_decoder_rank(self):
        graph = ring_graph(6)
        rng = np.random.default_rng(0)
        generation = Generation.random(GF(16), 6, 2, rng)
        placement = {node: [node] for node in graph.nodes()}
        process = AlgebraicGossip(graph, generation, placement, _SYNC, rng)
        # Feed node 0 a foreign packet so its rank exceeds its initial one.
        packet = encode_from_decoder(process.decoder(1), rng)
        process.on_deliver(0, 1, packet)
        assert process.rank_of(0) == 2
        process.on_crash(0)
        assert process.rank_of(0) == 1

    def test_spanning_tree_scenario_rejects_churn_reset_upfront(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(
                topology="barbell", n=8, protocol="spanning_tree",
                config=SimulationConfig(
                    max_rounds=1000, churn=((1, 2, 4),), churn_reset=True
                ),
            )

    def test_default_on_crash_refuses(self):
        class Opaque(GossipProcess):
            def on_wakeup(self, node, rng):  # pragma: no cover - unused
                return []

            def on_deliver(self, receiver, sender, payload):  # pragma: no cover
                return None

            def is_complete(self):  # pragma: no cover - unused
                return True

            def finished_nodes(self):  # pragma: no cover - unused
                return set()

        with pytest.raises(SimulationError):
            Opaque().on_crash(0)


class TestHeterogeneousRates:
    def test_same_seed_same_stopping_time(self):
        spec = ScenarioSpec(
            topology="ring", n=10, activation={"kind": "degree"}, config=_ASYNC
        )
        assert spec.materialize().run(trials=3, seed=5) == spec.materialize().run(
            trials=3, seed=5
        )

    def test_rates_change_the_outcome(self):
        uniform = ScenarioSpec(topology="star", n=10, config=_ASYNC)
        hetero = uniform.replace(activation={"kind": "two_speed", "ratio": 8.0})
        assert uniform.materialize().run(trials=3, seed=5) != hetero.materialize().run(
            trials=3, seed=5
        )
