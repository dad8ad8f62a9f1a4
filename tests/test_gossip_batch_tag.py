"""Batch-vs-scalar equivalence for the TAG and spanning-tree fast paths.

The contract under test (see ``repro/gossip/batch_tag.py``): for the same
per-trial generators, :class:`~repro.gossip.batch_tag.BatchTagEngine` and
:class:`~repro.gossip.batch_tag.BatchSpanningTreeEngine` are **bit-identical**
to :class:`~repro.gossip.engine.GossipEngine` driving the scalar protocol —
same stopping times, timeslots, message/helpful counts, per-node completion
rounds, tree shapes and metadata.  The cross product covers both time models,
all four spanning-tree protocols and both ``keep_phase1_after_tree``
settings; the large-size sweep is marked ``slow`` (run with ``--run-slow``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.stopping_time import measure_protocol
from repro.core import SimulationConfig, TimeModel
from repro.errors import SimulationError
from repro.experiments import all_to_all_placement
from repro.experiments.parallel import measure_protocol_parallel
from repro.gf import GF
from repro.gossip import (
    BatchTagEngine,
    run_rank_only_batch,
    run_spanning_tree_batch,
    run_tag_batch,
)
from repro.gossip.communication import RoundRobinSelector
from repro.graphs import barbell_graph, grid_graph
from repro.protocols import (
    AlgebraicGossip,
    BfsOracleTree,
    ISSpanningTree,
    RoundRobinBroadcastTree,
    TagProtocol,
    UniformBroadcastTree,
)
from repro.rlnc import Generation
from repro.scenarios import ScenarioSpec, default_scenario_config

SPANNING_TREES = ["brr", "uniform_broadcast", "bfs_oracle", "is"]


def tag_scenario(topology, n, k, *, spanning_tree, config=None):
    """A materialised TAG scenario (its graph, factory and config)."""
    return ScenarioSpec(
        topology=topology, n=n, k=k, protocol="tag", spanning_tree=spanning_tree,
        config=config or default_scenario_config(),
    ).materialize()


def _signature(results):
    """Everything a RunResult observes; any divergence fails the test."""
    return [
        (r.rounds, r.timeslots, r.completed, r.messages_sent, r.helpful_messages,
         dict(r.completion_rounds), dict(r.metadata))
        for r in results
    ]


def _assert_batched_equals_sequential(graph, factory, config, *, trials, seed):
    sequential = measure_protocol(graph, factory, config, trials=trials, seed=seed)
    batched = measure_protocol_parallel(
        graph, factory, config, trials=trials, seed=seed, jobs=1
    )
    assert _signature(batched) == _signature(sequential)


def _tag_factory(config, *, keep_phase1_after_tree=True, tree=RoundRobinBroadcastTree):
    """A TAG factory with explicit knobs (closures are fine in-process)."""

    def factory(graph, rng):
        generation = Generation.random(
            GF(config.field_size), graph.number_of_nodes(), 2, rng
        )
        return TagProtocol(
            graph, generation, all_to_all_placement(graph), config, rng,
            lambda g, r: tree(g, sorted(g.nodes())[0], r),
            keep_phase1_after_tree=keep_phase1_after_tree,
        )

    return factory


class TestTagBatchedEqualsSequential:
    # ``eliminator_field`` runs the equivalence over GF(2) and GF(16), so it
    # holds on the packed and on the dense eliminator alike.
    @pytest.mark.parametrize("time_model", list(TimeModel), ids=lambda m: m.value)
    @pytest.mark.parametrize("spanning_tree", SPANNING_TREES)
    def test_bit_identical_results(self, spanning_tree, time_model, eliminator_field):
        case = tag_scenario(
            "barbell", 8, 4, spanning_tree=spanning_tree,
            config=default_scenario_config(
                time_model=time_model, field_size=eliminator_field.order
            ),
        )
        _assert_batched_equals_sequential(
            case.graph, case.protocol_factory, case.config, trials=3, seed=99
        )

    @pytest.mark.parametrize("time_model", list(TimeModel), ids=lambda m: m.value)
    def test_keep_phase1_off_matches(self, time_model, eliminator_field):
        config = default_scenario_config(
            time_model=time_model, field_size=eliminator_field.order
        )
        graph = barbell_graph(8)
        factory = _tag_factory(config, keep_phase1_after_tree=False)
        _assert_batched_equals_sequential(graph, factory, config, trials=3, seed=7)

    def test_bit_identical_under_packet_loss(self):
        case = tag_scenario("grid", 9, 9, spanning_tree="uniform_broadcast")
        config = case.config.replace(loss_probability=0.2)
        _assert_batched_equals_sequential(
            case.graph, case.protocol_factory, config, trials=3, seed=5
        )

    @pytest.mark.slow
    @pytest.mark.parametrize("time_model", list(TimeModel), ids=lambda m: m.value)
    @pytest.mark.parametrize("spanning_tree", SPANNING_TREES)
    @pytest.mark.parametrize("keep_phase1", [True, False])
    def test_large_cross_product(self, spanning_tree, time_model, keep_phase1):
        config = default_scenario_config(time_model=time_model)
        graph = grid_graph(16)
        trees = {
            "brr": RoundRobinBroadcastTree,
            "uniform_broadcast": UniformBroadcastTree,
            "bfs_oracle": BfsOracleTree,
            "is": None,
        }
        if spanning_tree == "is":
            def factory(g, rng):
                generation = Generation.random(GF(16), g.number_of_nodes(), 2, rng)
                return TagProtocol(
                    g, generation, all_to_all_placement(g), config, rng,
                    lambda gg, r: ISSpanningTree(gg, r),
                    keep_phase1_after_tree=keep_phase1,
                )
        else:
            factory = _tag_factory(
                config, keep_phase1_after_tree=keep_phase1, tree=trees[spanning_tree]
            )
        _assert_batched_equals_sequential(graph, factory, config, trials=4, seed=17)


class TestSpanningTreeBatchedEqualsSequential:
    @pytest.mark.parametrize("time_model", list(TimeModel), ids=lambda m: m.value)
    @pytest.mark.parametrize(
        "factory",
        [
            lambda g, rng: RoundRobinBroadcastTree(g, 0, rng),
            lambda g, rng: UniformBroadcastTree(g, 0, rng),
            lambda g, rng: ISSpanningTree(g, rng),
            lambda g, rng: BfsOracleTree(g, 0, rng),
        ],
        ids=["brr", "uniform_broadcast", "is", "bfs_oracle"],
    )
    def test_standalone_protocols_match(self, factory, time_model):
        graph = barbell_graph(10)
        config = SimulationConfig(time_model=time_model, max_rounds=5_000)
        _assert_batched_equals_sequential(graph, factory, config, trials=3, seed=11)

    def test_restored_tree_matches_sequential_tree(self):
        """After a batch run the scalar protocol objects hold the final tree."""
        graph = barbell_graph(10)
        config = SimulationConfig(max_rounds=5_000)
        rngs = [np.random.default_rng(seed) for seed in range(3)]
        protocols = [RoundRobinBroadcastTree(graph, 0, rng) for rng in rngs]
        run_spanning_tree_batch(graph, protocols, config, rngs)
        scalar_rngs = [np.random.default_rng(seed) for seed in range(3)]
        for protocol, rng in zip(protocols, scalar_rngs):
            reference = RoundRobinBroadcastTree(graph, 0, rng)
            from repro.gossip import GossipEngine

            GossipEngine(graph, reference, config, rng).run()
            assert protocol.current_tree().parent == reference.current_tree().parent


#: Families whose former networkx builders listed their nodes out of
#: ascending order; round-robin offsets are drawn in ascending node order.
ORDER_SENSITIVE_SPECS = {
    "dumbbell": ScenarioSpec(topology="dumbbell", n=14, topology_params={"path_length": 3}),
    "star_of_cliques": ScenarioSpec(
        topology="star_of_cliques", n=13, topology_params={"cliques": 3}
    ),
}


class TestRoundRobinOnOrderSensitiveFamilies:
    @pytest.mark.parametrize("time_model", list(TimeModel), ids=lambda m: m.value)
    @pytest.mark.parametrize("protocol", ["tag", "spanning_tree"])
    @pytest.mark.parametrize("spanning_tree", ["brr", "is"])
    @pytest.mark.parametrize("family", sorted(ORDER_SENSITIVE_SPECS))
    def test_scalar_and_batch_engines_match(
        self, family, spanning_tree, protocol, time_model
    ):
        spec = ORDER_SENSITIVE_SPECS[family].replace(
            protocol=protocol,
            spanning_tree=spanning_tree,
            config=default_scenario_config(time_model=time_model),
            trials=3,
            seed=23,
        )
        scalar = spec.replace(engine="scalar").materialize().measure()
        batch = spec.replace(engine="batch").materialize().measure()
        assert _signature(batch) == _signature(scalar)


class TestBatchStrategySelection:
    def test_tag_declares_the_tag_runner(self, rng):
        case = tag_scenario("barbell", 8, 4, spanning_tree="brr")
        process = case.protocol_factory(case.graph, rng)
        assert process.batch_strategy() is run_tag_batch

    def test_tag_subclass_falls_back(self, rng):
        config = default_scenario_config()
        graph = barbell_graph(8)

        class TracingTag(TagProtocol):
            pass

        generation = Generation.random(GF(16), 8, 2, rng)
        process = TracingTag(
            graph, generation, all_to_all_placement(graph), config, rng,
            lambda g, r: RoundRobinBroadcastTree(g, 0, r),
        )
        assert process.batch_strategy() is None

    def test_tag_with_unsupported_tree_falls_back(self, rng):
        config = default_scenario_config()
        graph = barbell_graph(8)

        class CustomTree(UniformBroadcastTree):
            pass

        generation = Generation.random(GF(16), 8, 2, rng)
        process = TagProtocol(
            graph, generation, all_to_all_placement(graph), config, rng,
            lambda g, r: CustomTree(g, 0, r),
        )
        assert process.batch_strategy() is None

    def test_uniform_ag_declares_the_rank_only_runner(self, rng, sync_config):
        graph = barbell_graph(8)
        generation = Generation.random(GF(16), 8, 2, rng)
        process = AlgebraicGossip(
            graph, generation, all_to_all_placement(graph), sync_config, rng
        )
        assert process.batch_strategy() is run_rank_only_batch

    def test_round_robin_ag_falls_back(self, rng, sync_config):
        graph = barbell_graph(8)
        generation = Generation.random(GF(16), 8, 2, rng)
        process = AlgebraicGossip(
            graph, generation, all_to_all_placement(graph), sync_config, rng,
            selector=RoundRobinSelector(graph, rng),
        )
        assert process.batch_strategy() is None

    def test_standalone_tree_declares_the_tree_runner(self, rng):
        graph = barbell_graph(8)
        protocol = RoundRobinBroadcastTree(graph, 0, rng)
        assert protocol.batch_strategy() is run_spanning_tree_batch


class TestBatchTagEngineValidation:
    def test_rejects_mixed_keep_phase1(self, sync_config):
        graph = barbell_graph(8)
        rngs = [np.random.default_rng(seed) for seed in range(2)]
        processes = []
        for keep, rng in zip([True, False], rngs):
            generation = Generation.random(GF(16), 8, 2, rng)
            processes.append(
                TagProtocol(
                    graph, generation, all_to_all_placement(graph), sync_config, rng,
                    lambda g, r: RoundRobinBroadcastTree(g, 0, r),
                    keep_phase1_after_tree=keep,
                )
            )
        with pytest.raises(SimulationError):
            BatchTagEngine(graph, processes, sync_config, rngs)

    def test_rejects_non_tag_processes(self, rng, sync_config):
        graph = barbell_graph(8)
        generation = Generation.random(GF(16), 8, 2, rng)
        process = AlgebraicGossip(
            graph, generation, all_to_all_placement(graph), sync_config, rng
        )
        with pytest.raises(SimulationError):
            BatchTagEngine(graph, [process], sync_config, [rng])
