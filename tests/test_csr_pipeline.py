"""The one graph type: every family built once as a CSRGraph, every engine on it.

Three layers of guarantees:

* **Generated builder conformance** — for every registered family, size,
  family parameter and seed a hypothesis strategy draws, the direct builder
  produces ``(indptr, indices)`` arrays that are *byte-identical*
  (``tobytes()``, int64) to ``CSRGraph.from_networkx`` of the networkx
  builder the simulator used before (kept verbatim in
  ``tests/nx_topologies.py``), and raises the same
  :class:`~repro.errors.TopologyError` text on invalid input.
* **The container** — :class:`~repro.graphs.CSRGraph`'s networkx-compatible
  surface, its checked node ids, the value-keyed graph cache and the
  networkx round trip the analysis layer relies on.
* **One materialisation** — the event engine replays the scalar engine
  exactly (results and generator state) on the process the same factory
  builds, across loss, actions and placements; every engine, the analytic
  bounds and parallel worker dispatch run on the same graph.
"""

from __future__ import annotations

import dataclasses
import json
import pickle
import re

import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from nx_topologies import ORACLE_BUILDERS

from repro.core import GossipAction
from repro.core.rng import derive_rng
from repro.errors import TopologyError
from repro.gossip import EventGossipEngine, GossipEngine
from repro.graphs import (
    CSRGraph,
    TOPOLOGY_BUILDERS,
    build_topology,
    csr_bfs_distances,
    csr_from_edges,
)
from repro.scenarios import ScenarioSpec, get_scenario

# ----------------------------------------------------------------------
# Generated builder conformance: direct CSR == from_networkx(oracle), bytewise
# ----------------------------------------------------------------------
_SEEDS = st.integers(min_value=0, max_value=2**16)

#: Every family parameter a builder takes, with ranges that reach its
#: validation errors as well as its valid region.  Each is optional in a
#: drawn case, so the builder defaults are exercised too.
FAMILY_PARAMS: dict[str, dict[str, st.SearchStrategy]] = {
    "dumbbell": {"path_length": st.integers(-1, 12)},
    "clique_chain": {"cliques": st.integers(0, 7)},
    "star_of_cliques": {"cliques": st.integers(0, 7)},
    "ring_of_cliques": {"cliques": st.integers(1, 9)},
    "caterpillar": {"legs_per_spine": st.integers(0, 5)},
    "random_regular": {"degree": st.integers(1, 5), "seed": _SEEDS},
    "expander": {"seed": _SEEDS},
    "erdos_renyi": {
        "average_degree": st.floats(0.5, 10.0, allow_nan=False), "seed": _SEEDS,
    },
    "erdos_renyi_logn": {"c": st.floats(0.5, 4.0, allow_nan=False), "seed": _SEEDS},
    "small_world": {
        "neighbours": st.integers(1, 9),
        "rewire_probability": st.one_of(
            st.floats(0.0, 1.0, allow_nan=False), st.sampled_from([-0.25, 1.5])
        ),
        "seed": _SEEDS,
    },
}


@st.composite
def builder_cases(draw):
    name = draw(st.sampled_from(sorted(TOPOLOGY_BUILDERS)))
    n = draw(st.integers(min_value=0, max_value=96))
    kwargs = draw(st.fixed_dictionaries({}, optional=FAMILY_PARAMS.get(name, {})))
    return name, n, kwargs


def _build(builder, n, kwargs):
    """``(graph, None)`` or ``(None, TopologyError text)``."""
    try:
        return builder(n, **kwargs), None
    except TopologyError as error:
        return None, str(error)


def test_the_oracle_covers_every_registered_family():
    assert set(ORACLE_BUILDERS) == set(TOPOLOGY_BUILDERS)
    assert set(FAMILY_PARAMS) <= set(TOPOLOGY_BUILDERS)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=builder_cases())
@example(case=("line", 2, {}))
@example(case=("ring", 3, {}))
@example(case=("grid", 30, {}))  # non-square n: rounded by two_dimensional_side
@example(case=("torus", 9, {}))
@example(case=("ring_of_cliques", 257, {"cliques": 8}))  # uneven clique sizes
def test_direct_builder_matches_the_networkx_oracle_bytewise(case):
    """Cold builds on both sides: the raw builders, not the graph cache."""
    name, n, kwargs = case
    direct, direct_error = _build(TOPOLOGY_BUILDERS[name], n, kwargs)
    oracle, oracle_error = _build(ORACLE_BUILDERS[name], n, kwargs)
    assert direct_error == oracle_error
    if oracle is None:
        return
    reference = CSRGraph.from_networkx(oracle)
    assert direct.indptr.dtype == np.int64 and direct.indices.dtype == np.int64
    assert direct.n == oracle.number_of_nodes()
    assert direct.indptr.tobytes() == reference.indptr.tobytes()
    assert direct.indices.tobytes() == reference.indices.tobytes()
    assert direct.is_connected()


# ----------------------------------------------------------------------
# The value-keyed graph cache
# ----------------------------------------------------------------------
class TestGraphCache:
    def test_equal_arguments_share_one_instance(self):
        assert build_topology("ring", 4099) is build_topology("ring", 4099)
        assert build_topology("ring", 4099) is not build_topology("ring", 4101)
        assert build_topology("ring_of_cliques", 64, cliques=4) is build_topology(
            "ring_of_cliques", 64, cliques=4
        )

    def test_materialisations_share_the_graph_and_its_neighbour_memo(self):
        spec = get_scenario("uniform/complete")
        first, second = spec.materialize(), spec.replace(seed=9).materialize()
        assert first.graph is second.graph
        assert first.graph.neighbor_tuples() is second.graph.neighbor_tuples()

    def test_capacity_bounds_the_cache(self):
        from repro.graphs import topologies

        built = [build_topology("line", 8 + size) for size in range(12)]
        assert len(topologies._GRAPH_CACHE) == topologies._GRAPH_CACHE_CAPACITY
        assert build_topology("line", 8) is not built[0]  # evicted, rebuilt
        assert build_topology("line", 19) is built[-1]

    def test_unknown_family_is_a_topology_error(self):
        with pytest.raises(TopologyError, match="unknown topology"):
            build_topology("moebius", 16)


# ----------------------------------------------------------------------
# CSRGraph container semantics
# ----------------------------------------------------------------------
class TestCSRGraph:
    def test_matches_networkx_surface(self):
        graph = TOPOLOGY_BUILDERS["grid"](16)
        reference = ORACLE_BUILDERS["grid"](16)
        assert graph.number_of_nodes() == reference.number_of_nodes()
        assert graph.number_of_edges() == reference.number_of_edges()
        assert list(graph.nodes()) == sorted(reference.nodes())
        assert len(graph) == 16 and list(graph) == list(range(16))
        for node in graph.nodes():
            assert list(graph.neighbors(node)) == sorted(reference.neighbors(node))
            assert graph.degree[node] == reference.degree[node]
            assert graph.degree(node) == reference.degree(node)
        assert dict(iter(graph.degree)) == dict(reference.degree)
        assert sorted(graph.edges()) == sorted(tuple(sorted(e)) for e in reference.edges())
        assert graph.has_edge(0, 1) and graph.has_edge(1, 0) and not graph.has_edge(0, 5)
        assert 0 in graph and 15 in graph and np.int64(3) in graph
        assert 16 not in graph and -1 not in graph and "a" not in graph

    @pytest.mark.parametrize("node", [-1, 8, np.int64(-3), 2**40, "a", 1.5])
    def test_node_ids_outside_the_graph_raise_a_topology_error(self, node):
        graph = build_topology("ring", 8)
        for query in (
            lambda: graph.degree[node],
            lambda: graph.degree(node),
            lambda: list(graph.neighbors(node)),
            lambda: graph.bfs_distances(node),
            lambda: graph.has_edge(node, 0),
            lambda: graph.has_edge(0, node),
        ):
            with pytest.raises(TopologyError, match=re.escape(f"node {node!r} is not")):
                query()

    def test_numpy_node_ids_are_accepted(self):
        graph = build_topology("ring", 8)
        assert graph.degree[np.int64(7)] == 2
        assert list(graph.neighbors(np.int32(0))) == [1, 7]
        assert graph.bfs_distances(np.int64(0))[4] == 4

    @pytest.mark.parametrize("name", sorted(TOPOLOGY_BUILDERS))
    def test_networkx_round_trip_is_byte_identical(self, name):
        graph = TOPOLOGY_BUILDERS[name](32)
        view = graph.to_networkx()
        assert sorted(view.nodes()) == list(range(graph.n))
        for node in view.nodes():  # ascending adjacency, like the CSR rows
            assert list(view.neighbors(node)) == sorted(view.neighbors(node))
        back = CSRGraph.from_networkx(view)
        assert back.indptr.tobytes() == graph.indptr.tobytes()
        assert back.indices.tobytes() == graph.indices.tobytes()

    def test_from_networkx_relabels_sorted_nodes_to_positions(self):
        graph = CSRGraph.from_networkx(nx.path_graph(["c", "a", "b"]))
        # sorted labels a, b, c -> 0, 1, 2; the path is c - a - b.
        assert [list(graph.neighbors(node)) for node in graph] == [[1, 2], [0], [0]]

    def test_arrays_are_read_only_int64(self):
        graph = TOPOLOGY_BUILDERS["ring"](12)
        assert not graph.indptr.flags.writeable
        assert not graph.indices.flags.writeable
        with pytest.raises(ValueError):
            graph.indices[0] = 99

    def test_constructor_validates_shapes(self):
        with pytest.raises(ValueError, match="indptr"):
            CSRGraph(3, np.zeros(3, dtype=np.int64), np.zeros(0, dtype=np.int64))
        with pytest.raises(ValueError, match="indices"):
            CSRGraph(2, np.array([0, 1, 2]), np.zeros(5, dtype=np.int64))

    def test_pickle_roundtrip_preserves_arrays_and_flags(self):
        graph = TOPOLOGY_BUILDERS["torus"](16)
        graph.neighbor_tuples()
        clone = pickle.loads(pickle.dumps(graph))
        assert clone.n == graph.n
        assert clone.indptr.tobytes() == graph.indptr.tobytes()
        assert clone.indices.tobytes() == graph.indices.tobytes()
        assert not clone.indptr.flags.writeable
        assert not clone.indices.flags.writeable
        assert clone.neighbor_tuples() == graph.neighbor_tuples()

    def test_degrees_vector(self):
        graph = TOPOLOGY_BUILDERS["torus"](16)
        assert np.array_equal(graph.degrees(), np.full(16, 4, dtype=np.int64))

    def test_neighbor_tuples_are_the_sorted_rows_and_memoized(self):
        graph = TOPOLOGY_BUILDERS["star_of_cliques"](17)
        tuples = graph.neighbor_tuples()
        assert tuples is graph.neighbor_tuples()
        assert tuples == tuple(tuple(sorted(graph.neighbors(v))) for v in graph)

    def test_connectivity(self):
        assert TOPOLOGY_BUILDERS["ring"](10).is_connected()
        split = csr_from_edges(4, np.array([0, 2]), np.array([1, 3]))
        assert not split.is_connected()

    def test_bfs_distances_match_networkx(self):
        graph = TOPOLOGY_BUILDERS["grid"](25)
        reference = ORACLE_BUILDERS["grid"](25)
        for source in (0, 12, 24):
            expected = nx.single_source_shortest_path_length(reference, source)
            hops = csr_bfs_distances(graph.indptr, graph.indices, source)
            assert {node: int(d) for node, d in enumerate(hops)} == expected
            assert np.array_equal(graph.bfs_distances(source), hops)

    def test_csr_from_edges_matches_from_networkx(self):
        reference = nx.gnp_random_graph(30, 0.2, seed=11)
        edges = np.array(sorted(reference.edges()), dtype=np.int64)
        graph = csr_from_edges(30, edges[:, 0], edges[:, 1])
        converted = CSRGraph.from_networkx(reference)
        assert graph.indptr.tobytes() == converted.indptr.tobytes()
        assert graph.indices.tobytes() == converted.indices.tobytes()


# ----------------------------------------------------------------------
# One materialisation: the event engine replays the scalar one
# ----------------------------------------------------------------------
def _er_spec(**overrides) -> ScenarioSpec:
    settings = dict(n=64, trials=3, seed=20260808)
    settings.update(overrides)
    return get_scenario("event/er-logn").replace(**settings)


#: name → spec factory: one entry per behavioural axis the event engine
#: claims to replay bit-identically.
PIPELINE_CASES = {
    "er-logn": lambda: _er_spec(),
    "ring-of-cliques": lambda: get_scenario("event/ring-of-cliques").replace(
        n=64, trials=2, seed=5
    ),
    "loss": lambda: _er_spec(
        config=_er_spec().config.replace(loss_probability=0.25)
    ),
    "push": lambda: _er_spec(config=_er_spec().config.replace(action=GossipAction.PUSH)),
    "pull": lambda: _er_spec(config=_er_spec().config.replace(action=GossipAction.PULL)),
    "spread-placement": lambda: _er_spec(placement="spread"),
    "random-placement": lambda: _er_spec(placement="random"),
    "adversarial-far": lambda: get_scenario("event/ring-of-cliques").replace(
        n=48, trials=2, seed=9, placement="adversarial_far"
    ),
}


@pytest.mark.parametrize("case", sorted(PIPELINE_CASES), ids=str)
def test_event_engine_matches_the_scalar_engine(case):
    """Same results *and* generator state, trial for trial, on the process
    the factory builds for both engines."""
    spec = PIPELINE_CASES[case]()
    scenario = spec.materialize()
    for trial in range(spec.trials):
        runs = []
        for engine_class in (GossipEngine, EventGossipEngine):
            rng = derive_rng(spec.seed, f"trial-{trial}")
            process = scenario.build_process(rng)
            result = engine_class(scenario.graph, process, scenario.config, rng).run()
            runs.append((result, rng.bit_generator.state))
        assert runs[0] == runs[1], trial


def test_every_engine_runs_on_the_one_graph():
    spec = _er_spec(trials=2)
    event = spec.materialize().measure()
    assert spec.replace(engine="scalar").materialize().measure() == event
    assert spec.materialize().run_single() == event[0]


def test_parallel_worker_dispatch_matches_inline():
    """Chunked workers receive the CSRGraph by pickle and stay bit-identical."""
    scenario = _er_spec(trials=4).materialize()
    assert scenario.measure(jobs=2) == scenario.measure(jobs=1)


def test_bounds_work_for_every_scenario():
    bounds = _er_spec().materialize().bounds
    assert {"theorem1", "lower"} <= set(bounds)
    assert all(value > 0 for value in bounds.values())


def test_a_user_factory_pinned_to_the_event_engine_gives_the_scalar_result():
    """Any factory feeds the event engine the process it builds: a plain
    closure around the uniform factory, pinned to ``engine="event"``."""
    scenario = _er_spec(trials=2).materialize()
    factory = scenario.protocol_factory

    def user_factory(graph, rng):
        return factory(graph, rng)

    def pinned(engine):
        return dataclasses.replace(
            scenario,
            spec=scenario.spec.replace(engine=engine),
            protocol_factory=user_factory,
        )

    assert pinned("event").select_engine() == ("event", "pinned")
    assert pinned("event").measure() == pinned("scalar").measure()


def test_names_the_repository_benchmark_uses_stay_bound():
    """``perfbench/`` calls ``materialize_preferred`` and its tracer patches
    the topology build by these module attribute names."""
    from repro.campaigns import runner
    from repro.scenarios import spec as scenario_spec

    assert ScenarioSpec.materialize_preferred is ScenarioSpec.materialize
    assert scenario_spec.build_csr_topology is build_topology
    assert scenario_spec.build_topology is build_topology
    assert runner.build_topology is build_topology


# ----------------------------------------------------------------------
# CLI: `repro scenario stats`
# ----------------------------------------------------------------------
class TestScenarioStatsCommand:
    def test_json_reports_the_topology_statistics(self, capsys):
        from repro.cli import main

        assert main(["scenario", "stats", "event/er-logn", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "pipeline" not in payload
        assert payload["topology"] == "erdos_renyi_logn"
        assert payload["n"] == 2048
        assert payload["degree_min"] >= 1
        assert payload["degree_min"] <= payload["degree_mean"] <= payload["degree_max"]
        assert payload["materialize_seconds"] >= 0
        assert payload["m"] > payload["n"]  # connected G(n, 2 log n / n)

    def test_dense_families_report_like_any_other(self, capsys):
        from repro.cli import main

        assert main(["scenario", "stats", "uniform/complete", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["m"] == payload["n"] * (payload["n"] - 1) // 2

    def test_human_readable_output(self, capsys):
        from repro.cli import main

        assert main(["scenario", "stats", "event/ring-of-cliques"]) == 0
        out = capsys.readouterr().out
        assert "ring_of_cliques" in out and "pipeline" not in out

    def test_unknown_scenario_is_an_error(self, capsys):
        from repro.cli import main

        assert main(["scenario", "stats", "event/none-such"]) == 2
        assert "error:" in capsys.readouterr().err
