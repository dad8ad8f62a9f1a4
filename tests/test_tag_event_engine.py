"""Uniform AG, TAG and the standalone spanning trees on the event engine.

The contract under test (see ``repro/gossip/event.py``): for the same
per-trial generator, :class:`~repro.gossip.event.EventGossipEngine` running
uniform algebraic gossip, :class:`~repro.protocols.tag.TagProtocol`, or one
of the four built-in spanning trees on its own, returns exactly the
:class:`~repro.core.results.RunResult` of
:class:`~repro.gossip.engine.GossipEngine` — stopping time, timeslots,
message/helpful counts, per-node completion rounds, tree shape and
metadata — and leaves the generator in the same state.

* **Generated equivalence** — one hypothesis test over the spec space:
  uniform AG, TAG and standalone trees (both engines on the process the
  factory builds), topology (G(n, 2 log n / n) included), n ≤ 32, k,
  q ∈ {2, 3, 4, 5, 9, 16, 256} (bit rows, XOR byte rows and the
  table-added byte rows of odd fields), time model, action, the four
  built-in spanning trees, ``keep_phase1_after_tree``, packet loss, pause-
  and reset-mode churn, heterogeneous activation rates and root seeds on
  both sides of 2³¹.  A standalone tree under reset churn raises the scalar
  engine's :class:`~repro.errors.SimulationError` (or finishes identically
  when no crash fires first).
* **No decoder on the event engine** — uniform AG and TAG under reset
  churn replay the scalar engine while building no
  :class:`~repro.rlnc.decoder.RlncDecoder`: the event engine seeds and
  re-seeds every node from ``placement`` alone.
* **Generated round-end hook** — uniform AG and TAG with an
  ``on_round_end`` callback: its snapshots equal
  :class:`~repro.analysis.ProgressRecorder` on the scalar engine round for
  round, and the hook changes neither the result nor the generator state.
* **Runner against the sequential path** — ``MaterializedScenario.measure``,
  which runs TAG on the event engine, returns
  ``measure_protocol(..., engine="scalar")``'s results trial for trial:
  every tree in both time models over GF(2) and GF(16), under packet loss,
  and on every registered TAG scenario.
* **Hand-built TAG** — ``TagProtocol`` constructed directly (not through a
  ``ScenarioSpec``): ``keep_phase1_after_tree=False``, the tree × time model
  × phase-1 cross product on a grid, and the final tree left on the process.
* **Order-sensitive families** — B_RR and IS draw their round-robin offsets
  in ascending node order on the two families whose nodes were once listed
  out of order.
* **Typed refusals** — a ``TagProtocol`` subclass, a custom spanning tree
  and a round-end hook on a standalone tree raise
  :class:`~repro.errors.EngineError`; there is no fallback.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.analysis import ProgressRecorder, RoundSnapshot
from repro.core import GossipAction, TimeModel
from repro.core.rng import derive_rng
from repro.errors import EngineError, SimulationError
from repro.experiments import all_to_all_placement, measure_protocol
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
from repro.rlnc import Generation, RlncDecoder
from repro.scenarios import (
    ScenarioSpec,
    UniformGossipFactory,
    default_scenario_config,
    get_scenario,
    scenario_names,
)

TREES = ["brr", "uniform_broadcast", "bfs_oracle", "is"]
TOPOLOGIES = [
    "ring", "line", "grid", "complete", "barbell", "binary_tree", "star",
    "erdos_renyi_logn",
]


def _engine_outcome(engine_class, graph, factory, config, seed, trial, may_raise):
    """One trial's ``(result, generator state)``, or the error it raised.

    Both engines run the process the factory builds, as the trial runners do.
    """
    rng = derive_rng(seed, f"trial-{trial}")
    process = factory(graph, rng)
    try:
        result = engine_class(graph, process, config, rng).run()
    except SimulationError as error:
        if not may_raise:
            raise
        return type(error), str(error)
    # Only uniform AG reports a minimum rank; TAG and the trees never do.
    assert ("min_rank" in result.metadata) == isinstance(factory, UniformGossipFactory)
    return result, rng.bit_generator.state


def _assert_engines_match(
    graph, factory, config, *, trials: int, seed: int, may_raise: bool = False
) -> None:
    """Per trial: equal results and equal final generator state (or, with
    ``may_raise``, the same ``SimulationError`` on both engines)."""
    for trial in range(trials):
        scalar, event = (
            _engine_outcome(engine_class, graph, factory, config, seed, trial, may_raise)
            for engine_class in (GossipEngine, EventGossipEngine)
        )
        assert event == scalar, trial


def _assert_event_matches_scalar(spec: ScenarioSpec, trials: int = 1) -> None:
    scenario = spec.materialize()
    _assert_engines_match(
        scenario.graph, scenario.protocol_factory, scenario.config,
        trials=trials, seed=spec.seed,
    )


@st.composite
def event_specs(draw, protocols=("uniform", "tag", "spanning_tree")) -> ScenarioSpec:
    """A valid scenario over every axis the event engine replays.

    A standalone tree cannot be *specified* with reset churn (its spec is
    refused); :func:`test_event_engine_matches_scalar` runs that case on a
    hand-edited config instead.
    """
    protocol = draw(st.sampled_from(protocols))
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
    k = draw(st.integers(1, 10))
    if topology == "barbell" and draw(st.booleans()):
        # k = n (None): the Ω(n²) regime, where clique neighbours often span
        # equal subspaces.
        k = None
    return ScenarioSpec(
        topology=topology,
        n=n,
        k=k,
        protocol=protocol,
        spanning_tree=draw(st.sampled_from(TREES)),
        keep_phase1_after_tree=draw(st.booleans()),
        activation=activation,
        config=default_scenario_config(
            time_model=time_model,
            field_size=draw(st.sampled_from([2, 3, 4, 5, 9, 16, 256])),
        ).replace(
            action=draw(st.sampled_from(list(GossipAction))),
            loss_probability=draw(st.sampled_from([0.0, 0.0, 0.15])),
            churn=schedule,
            churn_reset=churn == "reset" and protocol != "spanning_tree",
        ),
        seed=draw(st.integers(0, 2**64 - 1)),
    )


_RESET = default_scenario_config(field_size=2).replace(
    churn=((3, 2, 7), (9, 4, 6)), churn_reset=True, loss_probability=0.15
)
_SYNC = default_scenario_config()
_ASYNC = default_scenario_config(time_model=TimeModel.ASYNCHRONOUS)


# derandomize: the 150 draws derive from the test itself, so every run checks
# the same cases and the suite's wall time does not swing with the draws.
@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(spec=event_specs())
# Uniform AG on the widest byte rows (every byte a field element) under
# loss, on GF(5) (prime: coefficients through the rejection path of the
# bounded-integer rule), on GF(9) (odd extension: byte rows added element
# by element) under reset churn, and over GF(2) on G(n, 2 log n / n) with a
# root seed beyond 2³¹.
@example(spec=ScenarioSpec(
    topology="complete", n=16, k=8, seed=20260808,
    config=_SYNC.replace(field_size=256, loss_probability=0.2),
))
@example(spec=ScenarioSpec(
    topology="ring", n=16, k=8, seed=20260808, config=_SYNC.replace(field_size=5),
))
@example(spec=ScenarioSpec(
    topology="ring", n=12, k=6, seed=20260808,
    config=_ASYNC.replace(field_size=9, churn=((4, 3, 9),), churn_reset=True),
))
@example(spec=ScenarioSpec(
    topology="erdos_renyi_logn", n=32, k=8, seed=2**40 + 1,
    config=_ASYNC.replace(field_size=2),
))
# Uniform AG under pause churn: async on a binary tree (degree-one leaves
# draw their partner from a range of one, which consumes no randomness)
# over GF(3) with loss and degree rates; sync on a ring with loss.
@example(spec=ScenarioSpec(
    topology="binary_tree", n=16, k=8, seed=20260808, activation={"kind": "degree"},
    config=_ASYNC.replace(
        field_size=3, loss_probability=0.1, churn=((3, 2, 10), (11, 6, 14))
    ),
))
@example(spec=ScenarioSpec(
    topology="ring", n=16, k=8, seed=20260808,
    config=_SYNC.replace(churn=((3, 2, 10), (11, 6, 14)), loss_probability=0.2),
))
# Async TAG under churn and rates: IS with pause churn, the BFS oracle
# with reset churn.
@example(spec=ScenarioSpec(
    topology="barbell", n=12, protocol="tag", spanning_tree="is", seed=7,
    activation={"kind": "two_speed", "ratio": 3.0, "fast_fraction": 0.25},
    config=_ASYNC.replace(churn=((3, 2, 6),)),
))
@example(spec=ScenarioSpec(
    topology="barbell", n=12, protocol="tag", spanning_tree="bfs_oracle", seed=7,
    activation={"kind": "degree"},
    config=_ASYNC.replace(churn=((3, 2, 6),), churn_reset=True),
))
# Uniform AG at k = n on the barbell over GF(2) and GF(16): most packets
# pass between nodes that span the same subspace, and are skipped.
@example(spec=ScenarioSpec(
    topology="barbell", n=16, k=16, config=default_scenario_config(field_size=2),
))
@example(spec=ScenarioSpec(
    topology="barbell", n=16, k=16, config=default_scenario_config(field_size=16),
))
# Uniform AG over GF(2): async reset churn under two-speed rates and loss.
@example(spec=ScenarioSpec(
    topology="barbell", n=12, k=6, activation={
        "kind": "two_speed", "ratio": 4.0, "fast_fraction": 0.25,
    },
    config=default_scenario_config(
        time_model=TimeModel.ASYNCHRONOUS, field_size=2,
    ).replace(churn=((3, 2, 7), (9, 4, 6)), churn_reset=True, loss_probability=0.15),
))
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
# Standalone trees: the BFS oracle is complete at round 0; async IS under
# pause churn and rates; sync B_RR under loss (and, hand-edited, reset
# churn that fires in round 1).
@example(spec=ScenarioSpec(
    topology="barbell", n=12, protocol="spanning_tree", spanning_tree="bfs_oracle",
))
@example(spec=ScenarioSpec(
    topology="grid", n=16, protocol="spanning_tree", spanning_tree="is",
    activation={"kind": "degree"},
    config=default_scenario_config(time_model=TimeModel.ASYNCHRONOUS).replace(
        churn=((5, 2, 6), (15, 1, 3)),
    ),
))
@example(spec=ScenarioSpec(
    topology="barbell", n=16, protocol="spanning_tree", spanning_tree="brr",
    config=default_scenario_config().replace(
        loss_probability=0.15, churn=((3, 1, 4),),
    ),
))
def test_event_engine_matches_scalar(spec):
    _assert_event_matches_scalar(spec)
    if spec.protocol == "spanning_tree" and spec.config.churn:
        # The same schedule in reset mode: a crash reaches the tree's own
        # on_crash, which refuses on both engines with the same error.
        scenario = spec.materialize()
        _assert_engines_match(
            scenario.graph, scenario.protocol_factory,
            scenario.config.replace(churn_reset=True),
            trials=1, seed=spec.seed, may_raise=True,
        )


@pytest.mark.parametrize("time_model", list(TimeModel), ids=lambda m: m.value)
@pytest.mark.parametrize("spanning_tree", TREES)
def test_standalone_tree_under_reset_churn_raises_the_scalar_error(
    spanning_tree, time_model
):
    """A crash in round 1 reaches the tree's ``on_crash`` on both engines."""
    scenario = ScenarioSpec(
        topology="barbell", n=10, protocol="spanning_tree", spanning_tree=spanning_tree,
        config=default_scenario_config(time_model=time_model),
    ).materialize()
    config = scenario.config.replace(churn=((4, 1, 3),), churn_reset=True)
    for engine_class in (GossipEngine, EventGossipEngine):
        rng = derive_rng(0, "trial-0")
        process = scenario.build_process(rng)
        engine = engine_class(scenario.graph, process, config, rng)
        if spanning_tree == "bfs_oracle":
            # Complete before round 1: no crash ever fires.
            assert engine.run().rounds == 0
            continue
        with pytest.raises(SimulationError, match="does not support churn_reset"):
            engine.run()


@pytest.mark.parametrize("time_model", list(TimeModel), ids=lambda m: m.value)
@pytest.mark.parametrize("protocol", ["uniform", "tag"])
def test_an_event_trial_builds_no_decoder(protocol, time_model, monkeypatch):
    """The event engine seeds (and, under reset churn, re-seeds) every node
    from the process's ``placement`` and never asks it for a decoder: an
    event trial builds no :class:`RlncDecoder`, on the engine or through the
    trial runner, yet its result and generator state equal the scalar
    engine's, which builds every node's decoder on first use."""
    spec = ScenarioSpec(
        topology="barbell", n=12, k=6, protocol=protocol, placement="random",
        config=default_scenario_config(time_model=time_model, field_size=2).replace(
            churn=((3, 2, 7), (7, 3, 6)), churn_reset=True
        ),
        seed=41,
    )
    scenario = spec.materialize()
    built = []
    build_decoder = RlncDecoder.__init__

    def counting_init(decoder, *args, **kwargs):
        built.append(decoder)
        build_decoder(decoder, *args, **kwargs)

    monkeypatch.setattr(RlncDecoder, "__init__", counting_init)
    for trial in range(3):
        outcomes = []
        for engine_class in (GossipEngine, EventGossipEngine):
            built.clear()
            rng = derive_rng(spec.seed, f"trial-{trial}")
            process = scenario.build_process(rng)
            result = engine_class(scenario.graph, process, scenario.config, rng).run()
            outcomes.append((result, rng.bit_generator.state, len(built)))
        (scalar, scalar_state, scalar_built), (event, event_state, event_built) = outcomes
        assert (event, event_state) == (scalar, scalar_state), trial
        assert scalar_built >= scenario.n and event_built == 0, trial
    built.clear()
    assert scenario.select_engine()[0] == "event"
    scenario.measure()
    assert not built


# ----------------------------------------------------------------------
# The round-end hook against ProgressRecorder on the scalar engine
# ----------------------------------------------------------------------
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spec=event_specs(protocols=("uniform", "tag")))
@example(spec=ScenarioSpec(
    topology="barbell", n=12, k=12, config=default_scenario_config(
        time_model=TimeModel.ASYNCHRONOUS
    ).replace(churn=((3, 2, 7),), churn_reset=True),
))
@example(spec=ScenarioSpec(topology="barbell", n=12, k=12, protocol="tag"))
def test_round_end_hook_matches_the_progress_recorder(spec):
    scenario = spec.materialize()
    graph, factory, config = scenario.graph, scenario.protocol_factory, scenario.config

    rng = derive_rng(spec.seed, "trial-0")
    recorder = ProgressRecorder(factory(graph, rng))
    scalar = GossipEngine(graph, recorder, config, rng).run()
    scalar_state = rng.bit_generator.state

    snapshots = []

    def record(round_index, ranks):
        snapshots.append(RoundSnapshot.from_ranks(round_index, ranks, scenario.k))

    runs = []
    for hook in (record, None):
        rng = derive_rng(spec.seed, "trial-0")
        result = EventGossipEngine(
            graph, factory(graph, rng), config, rng, on_round_end=hook
        ).run()
        runs.append((result, rng.bit_generator.state))
    (hooked, hooked_state), (plain, plain_state) = runs

    assert snapshots == recorder.snapshots
    assert (hooked, hooked_state) == (plain, plain_state)
    assert hooked_state == scalar_state
    metadata = dict(scalar.metadata)
    assert metadata.pop("progress_snapshots") == len(snapshots)
    assert hooked == dataclasses.replace(scalar, metadata=metadata)


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
    """The trial runner (``MaterializedScenario.measure``) picks the event
    engine for TAG and returns the scalar engine's results, trial for
    trial."""
    scenario = spec.materialize()
    assert scenario.select_engine() == ("event", "auto: TAG")
    sequential = measure_protocol(
        scenario.graph, scenario.protocol_factory, scenario.config,
        trials=trials, seed=seed, engine="scalar",
    )
    assert scenario.measure(trials=trials, seed=seed) == sequential


class TestRunnerMatchesSequential:
    # ``eliminator_field`` runs the equivalence over GF(2) and GF(16), so it
    # holds on the bit rows and on the byte rows of RowEliminator alike.
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


def test_a_round_end_hook_on_a_standalone_tree_is_refused(rng):
    graph = barbell_graph(8)
    process = RoundRobinBroadcastTree(graph, 0, rng)
    assert process.supports_event_engine()
    with pytest.raises(EngineError, match="no decoder ranks"):
        EventGossipEngine(
            graph, process, default_scenario_config(), rng,
            on_round_end=lambda round_index, ranks: None,
        )
