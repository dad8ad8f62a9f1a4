"""TAG on the event-driven engine: bit-identical to the scalar engine.

The contract under test (see ``repro/gossip/event.py``): for the same
per-trial generator, :class:`~repro.gossip.event.EventGossipEngine` running
:class:`~repro.protocols.tag.TagProtocol` returns exactly the
:class:`~repro.core.results.RunResult` of
:class:`~repro.gossip.engine.GossipEngine` — stopping time, timeslots,
message/helpful counts, per-node completion rounds, tree shape and
metadata — and leaves the generator in the same state.

* **Generated equivalence** — one hypothesis test over the spec space:
  topology, n ≤ 32, k, q ∈ {2, 3, 4, 16}, time model, the four built-in
  spanning trees, ``keep_phase1_after_tree``, packet loss, pause- and
  reset-mode churn and heterogeneous activation rates.
* **Runner against the sequential path** — ``measure_protocol_parallel``,
  which runs TAG on the event engine, returns ``measure_protocol``'s scalar
  results trial for trial: every tree in both time models over GF(2) and
  GF(16), under packet loss, and on every registered TAG scenario.
* **Hand-built TAG** — ``TagProtocol`` constructed directly (not through a
  ``ScenarioSpec``): ``keep_phase1_after_tree=False``, the tree × time model
  × phase-1 cross product on a grid, and the final tree left on the process.
* **Order-sensitive families** — B_RR and IS draw their round-robin offsets
  in ascending node order on the two families whose nodes were once listed
  out of order.
* **Typed refusals** — a ``TagProtocol`` subclass and a custom spanning tree
  raise :class:`~repro.errors.EngineError`; there is no fallback.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.analysis.stopping_time import measure_protocol
from repro.core import TimeModel
from repro.core.rng import derive_rng
from repro.errors import EngineError
from repro.experiments import all_to_all_placement, measure_protocol_parallel
from repro.gf import GF
from repro.gossip import EventGossipEngine, GossipEngine
from repro.graphs import barbell_graph, build_topology, grid_graph
from repro.protocols import (
    BfsOracleTree,
    ISSpanningTree,
    RoundRobinBroadcastTree,
    TagProtocol,
    UniformBroadcastTree,
)
from repro.rlnc import Generation
from repro.scenarios import (
    ScenarioSpec,
    default_scenario_config,
    get_scenario,
    scenario_names,
)

TREES = ["brr", "uniform_broadcast", "bfs_oracle", "is"]
TOPOLOGIES = ["ring", "line", "grid", "complete", "barbell", "binary_tree", "star"]


def _assert_engines_match(graph, factory, config, *, trials: int, seed: int) -> None:
    """Per trial: equal results and equal final generator state."""
    for trial in range(trials):
        runs = []
        for engine_class in (GossipEngine, EventGossipEngine):
            rng = derive_rng(seed, f"trial-{trial}")
            result = engine_class(graph, factory(graph, rng), config, rng).run()
            runs.append((result, rng.bit_generator.state))
        (scalar, scalar_state), (event, event_state) = runs
        assert event == scalar, trial
        assert event_state == scalar_state, trial
        assert "min_rank" not in event.metadata


def _assert_event_matches_scalar(spec: ScenarioSpec, trials: int = 1) -> None:
    scenario = spec.materialize()
    _assert_engines_match(
        scenario.graph, scenario.protocol_factory, scenario.config,
        trials=trials, seed=spec.seed,
    )


@st.composite
def tag_specs(draw) -> ScenarioSpec:
    """A valid TAG scenario over every axis the event engine replays."""
    topology = draw(st.sampled_from(TOPOLOGIES))
    n = draw(st.integers(4, 32))
    # Churn names materialised nodes: some families round n (grids).
    nodes = build_topology(topology, n).number_of_nodes()
    time_model = draw(st.sampled_from(list(TimeModel)))
    churn = draw(st.sampled_from(["none", "pause", "reset"]))
    schedule = ()
    if churn != "none":
        schedule = tuple(
            (node, down, down + draw(st.integers(1, 8)))
            for node, down in draw(
                st.lists(
                    st.tuples(st.integers(0, nodes - 1), st.integers(1, 6)),
                    min_size=1,
                    max_size=3,
                )
            )
        )
    activation = {}
    if time_model is TimeModel.ASYNCHRONOUS and draw(st.booleans()):
        activation = draw(st.sampled_from([
            {"kind": "two_speed", "ratio": 4.0, "fast_fraction": 0.25},
            {"kind": "degree"},
        ]))
    return ScenarioSpec(
        topology=topology,
        n=n,
        k=draw(st.integers(1, 10)),
        protocol="tag",
        spanning_tree=draw(st.sampled_from(TREES)),
        keep_phase1_after_tree=draw(st.booleans()),
        activation=activation,
        config=default_scenario_config(
            time_model=time_model,
            field_size=draw(st.sampled_from([2, 3, 4, 16])),
        ).replace(
            loss_probability=draw(st.sampled_from([0.0, 0.0, 0.15])),
            churn=schedule,
            churn_reset=churn == "reset",
        ),
        seed=draw(st.integers(0, 2**31 - 1)),
    )


_RESET = default_scenario_config(field_size=2).replace(
    churn=((3, 2, 7), (9, 4, 6)), churn_reset=True, loss_probability=0.15
)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spec=tag_specs())
# The BFS oracle over GF(2), with and without phase 1 after the tree.
@example(spec=ScenarioSpec(
    topology="barbell", n=12, k=12, protocol="tag", spanning_tree="bfs_oracle",
    keep_phase1_after_tree=False, config=default_scenario_config(field_size=2),
))
# Reset churn, three ways: sync B_RR, async IS, sync uniform broadcast with
# loss over GF(2).
@example(spec=ScenarioSpec(
    topology="barbell", n=16, protocol="tag", spanning_tree="brr",
    config=default_scenario_config().replace(
        churn=((3, 2, 7), (12, 5, 9)), churn_reset=True
    ),
))
@example(spec=ScenarioSpec(
    topology="grid", n=16, k=8, protocol="tag", spanning_tree="is",
    config=default_scenario_config(time_model=TimeModel.ASYNCHRONOUS).replace(
        churn=((5, 2, 6),), churn_reset=True
    ),
))
@example(spec=ScenarioSpec(
    topology="ring", n=12, protocol="tag", spanning_tree="uniform_broadcast",
    config=_RESET,
))
def test_event_engine_matches_scalar(spec):
    _assert_event_matches_scalar(spec)


#: Families whose former networkx builders listed their nodes out of
#: ascending order; round-robin offsets are drawn in ascending node order.
ORDER_SENSITIVE_SPECS = {
    "dumbbell": ScenarioSpec(topology="dumbbell", n=14, topology_params={"path_length": 3}),
    "star_of_cliques": ScenarioSpec(
        topology="star_of_cliques", n=13, topology_params={"cliques": 3}
    ),
}


@pytest.mark.parametrize("time_model", list(TimeModel), ids=lambda m: m.value)
@pytest.mark.parametrize("spanning_tree", ["brr", "is"])
@pytest.mark.parametrize("family", sorted(ORDER_SENSITIVE_SPECS))
def test_round_robin_on_order_sensitive_families(family, spanning_tree, time_model):
    spec = ORDER_SENSITIVE_SPECS[family].replace(
        protocol="tag",
        spanning_tree=spanning_tree,
        config=default_scenario_config(time_model=time_model),
        seed=23,
    )
    _assert_event_matches_scalar(spec, trials=3)


# ----------------------------------------------------------------------
# The trial runner against the sequential path
# ----------------------------------------------------------------------
def _assert_runner_matches_sequential(spec: ScenarioSpec, *, trials: int, seed: int):
    """``measure_protocol_parallel`` picks the event engine for TAG and
    returns ``measure_protocol``'s scalar results, trial for trial."""
    scenario = spec.materialize()
    assert scenario.select_engine() == ("event", "auto: TAG")
    sequential = measure_protocol(
        scenario.graph, scenario.protocol_factory, scenario.config,
        trials=trials, seed=seed,
    )
    assert measure_protocol_parallel(scenario, trials=trials, seed=seed, jobs=1) == sequential


class TestRunnerMatchesSequential:
    # ``eliminator_field`` runs the equivalence over GF(2) and GF(16), so it
    # holds on the packed and on the dense eliminator alike.
    @pytest.mark.parametrize("time_model", list(TimeModel), ids=lambda m: m.value)
    @pytest.mark.parametrize("spanning_tree", TREES)
    def test_bit_identical_results(self, spanning_tree, time_model, eliminator_field):
        spec = ScenarioSpec(
            topology="barbell", n=8, k=4, protocol="tag", spanning_tree=spanning_tree,
            config=default_scenario_config(
                time_model=time_model, field_size=eliminator_field.order
            ),
        )
        _assert_runner_matches_sequential(spec, trials=3, seed=99)

    def test_bit_identical_under_packet_loss(self):
        spec = ScenarioSpec(
            topology="grid", n=9, k=9, protocol="tag", spanning_tree="uniform_broadcast",
            config=default_scenario_config().replace(loss_probability=0.2),
        )
        _assert_runner_matches_sequential(spec, trials=3, seed=5)

    @pytest.mark.parametrize(
        "name", [name for name in scenario_names() if get_scenario(name).protocol == "tag"]
    )
    def test_registered_tag_scenarios(self, name):
        spec = get_scenario(name)
        _assert_runner_matches_sequential(spec, trials=spec.trials, seed=spec.seed)


# ----------------------------------------------------------------------
# Hand-built TAG
# ----------------------------------------------------------------------
def _tag_factory(config, *, keep_phase1_after_tree=True, tree=RoundRobinBroadcastTree):
    """A TAG factory with explicit knobs; broadcast trees are rooted at 0."""
    build_tree = tree if tree is ISSpanningTree else lambda g, r: tree(g, 0, r)

    def factory(graph, rng):
        generation = Generation.random(
            GF(config.field_size), graph.number_of_nodes(), 2, rng
        )
        return TagProtocol(
            graph, generation, all_to_all_placement(graph), config, rng,
            build_tree, keep_phase1_after_tree=keep_phase1_after_tree,
        )

    return factory


TREE_CLASSES = {
    "brr": RoundRobinBroadcastTree,
    "uniform_broadcast": UniformBroadcastTree,
    "bfs_oracle": BfsOracleTree,
    "is": ISSpanningTree,
}


class TestHandBuiltTag:
    @pytest.mark.parametrize("time_model", list(TimeModel), ids=lambda m: m.value)
    def test_keep_phase1_off_matches(self, time_model, eliminator_field):
        config = default_scenario_config(
            time_model=time_model, field_size=eliminator_field.order
        )
        factory = _tag_factory(config, keep_phase1_after_tree=False)
        _assert_engines_match(barbell_graph(8), factory, config, trials=3, seed=7)

    @pytest.mark.parametrize("time_model", list(TimeModel), ids=lambda m: m.value)
    @pytest.mark.parametrize("spanning_tree", TREES)
    @pytest.mark.parametrize("keep_phase1", [True, False])
    def test_grid_cross_product(self, spanning_tree, time_model, keep_phase1):
        config = default_scenario_config(time_model=time_model)
        factory = _tag_factory(
            config, keep_phase1_after_tree=keep_phase1, tree=TREE_CLASSES[spanning_tree]
        )
        _assert_engines_match(grid_graph(16), factory, config, trials=4, seed=17)

    @pytest.mark.parametrize("spanning_tree", TREES)
    def test_the_process_keeps_the_final_tree(self, spanning_tree):
        """The event engine drives the process's own tree object, so after a
        run that object holds the tree the scalar run builds."""
        config = default_scenario_config()
        factory = _tag_factory(config, tree=TREE_CLASSES[spanning_tree])
        graph = barbell_graph(10)
        parents = []
        for engine_class in (GossipEngine, EventGossipEngine):
            rng = derive_rng(3, "trial-0")
            process = factory(graph, rng)
            assert engine_class(graph, process, config, rng).run().completed
            parents.append([process.stp.parent_of(node) for node in graph.nodes()])
        assert parents[0] == parents[1]
        assert sum(parent is None for parent in parents[0]) <= 1


def test_the_runner_picks_the_event_engine_for_every_tree():
    for tree in TREES:
        spec = ScenarioSpec(topology="barbell", n=8, protocol="tag", spanning_tree=tree)
        assert spec.materialize().select_engine() == ("event", "auto: TAG")


# ----------------------------------------------------------------------
# Typed refusals
# ----------------------------------------------------------------------
def _tag_process(rng, *, protocol_class=TagProtocol, tree=RoundRobinBroadcastTree):
    graph = barbell_graph(8)
    config = default_scenario_config()
    generation = Generation.random(GF(16), 8, 2, rng)
    process = protocol_class(
        graph, generation, all_to_all_placement(graph), config, rng,
        lambda g, r: tree(g, 0, r),
    )
    return graph, process, config


def test_tag_subclass_is_refused(rng):
    class TracingTag(TagProtocol):
        pass

    graph, process, config = _tag_process(rng, protocol_class=TracingTag)
    assert not process.supports_event_engine()
    with pytest.raises(EngineError, match="TracingTag"):
        EventGossipEngine(graph, process, config, rng)


def test_tag_with_a_custom_tree_is_refused(rng):
    class CustomTree(UniformBroadcastTree):
        pass

    graph, process, config = _tag_process(rng, tree=CustomTree)
    assert not process.supports_event_engine()
    with pytest.raises(EngineError, match="event-driven"):
        EventGossipEngine(graph, process, config, rng)


def test_tag_with_a_built_in_tree_is_accepted(rng):
    graph, process, config = _tag_process(rng)
    assert process.supports_event_engine()
    assert EventGossipEngine(graph, process, config, rng).run().completed
