"""Determinism and equivalence tests for the parallel trial runners.

The contract under test: for the same root seed, every runner —
sequential, in-process on the rule's engine, multi-process — produces the
*same* results trial-for-trial, because trial ``i`` always draws from
``derive_rng(seed, f"trial-{i}")`` and the event engine replicates the
sequential engine's random stream call-for-call.
"""

from __future__ import annotations

import pytest

from repro.analysis.stopping_time import measure_protocol, run_trials
from repro.campaigns import CampaignSpec, CampaignUnit, run_campaign
from repro.core import TimeModel
from repro.errors import AnalysisError
from repro.experiments import measure_protocol_parallel, run_trials_parallel
from repro.experiments.parallel import _chunks
from repro.scenarios import ScenarioSpec, default_scenario_config
from repro.store import ResultStore


def uniform_scenario(topology, n, k, *, config=None):
    """A materialised uniform-AG scenario (its graph, factory and config)."""
    return ScenarioSpec(
        topology=topology, n=n, k=k, config=config or default_scenario_config()
    ).materialize()


def tag_scenario(topology, n, k):
    """A materialised TAG + B_RR scenario."""
    return ScenarioSpec(
        topology=topology, n=n, k=k, protocol="tag", config=default_scenario_config()
    ).materialize()


def _campaign(*specs):
    """An inline campaign with one unit per spec."""
    return CampaignSpec(
        name="parallel-wiring",
        units=tuple(
            CampaignUnit(name=f"u{index}", spec=spec) for index, spec in enumerate(specs)
        ),
    )


def _signature(results):
    return [
        (r.rounds, r.timeslots, r.completed, r.messages_sent, r.helpful_messages,
         dict(r.completion_rounds), dict(r.metadata))
        for r in results
    ]


@pytest.fixture(scope="module")
def uniform_case():
    return uniform_scenario("grid", 9, 5)


class TestRunnerEqualsSequential:
    @pytest.mark.parametrize("time_model", list(TimeModel), ids=lambda m: m.value)
    def test_bit_identical_results(self, time_model):
        case = uniform_scenario(
            "ring", 8, 4, config=default_scenario_config(time_model=time_model)
        )
        sequential = measure_protocol(
            case.graph, case.protocol_factory, case.config, trials=4, seed=99
        )
        fast = measure_protocol_parallel(
            case.graph, case.protocol_factory, case.config, trials=4, seed=99,
            jobs=1,
        )
        assert _signature(fast) == _signature(sequential)

    def test_bit_identical_under_packet_loss(self, uniform_case):
        config = uniform_case.config.replace(loss_probability=0.25)
        sequential = measure_protocol(
            uniform_case.graph, uniform_case.protocol_factory, config, trials=3, seed=5
        )
        fast = measure_protocol_parallel(
            uniform_case.graph, uniform_case.protocol_factory, config, trials=3,
            seed=5, jobs=1,
        )
        assert _signature(fast) == _signature(sequential)

    def test_stats_equal_run_trials(self, uniform_case):
        sequential = run_trials(
            uniform_case.graph, uniform_case.protocol_factory, uniform_case.config,
            trials=4, seed=21,
        )
        fast = run_trials_parallel(
            uniform_case.graph, uniform_case.protocol_factory, uniform_case.config,
            trials=4, seed=21, jobs=1,
        )
        assert fast.samples == sequential.samples

    def test_tag_runs_on_the_event_engine(self):
        # The rule sends TAG to the event engine; results stay bit-identical.
        case = tag_scenario("barbell", 10, 10)
        sequential = measure_protocol(
            case.graph, case.protocol_factory, case.config, trials=2, seed=13
        )
        fast = measure_protocol_parallel(
            case.graph, case.protocol_factory, case.config, trials=2, seed=13,
            jobs=1,
        )
        assert _signature(fast) == _signature(sequential)

    def test_unsupported_protocol_runs_on_the_scalar_engine(self, uniform_case):
        # A uniform-AG process with a non-uniform selector is outside the
        # event engine, so the rule runs it on the sequential engine — and
        # still matches it (trivially, being the same path).
        from repro.gossip.communication import RoundRobinSelector
        from repro.protocols import AlgebraicGossip
        from repro.rlnc import Generation
        from repro.gf import GF
        from repro.experiments import all_to_all_placement

        config = default_scenario_config()

        def factory(graph, rng):
            generation = Generation.random(GF(16), graph.number_of_nodes(), 2, rng)
            return AlgebraicGossip(
                graph, generation, all_to_all_placement(graph), config, rng,
                selector=RoundRobinSelector(graph, rng),
            )

        import numpy as np

        assert not factory(uniform_case.graph, np.random.default_rng(0)).supports_event_engine()
        sequential = measure_protocol(
            uniform_case.graph, factory, config, trials=2, seed=13
        )
        fast = measure_protocol_parallel(
            uniform_case.graph, factory, config, trials=2, seed=13, jobs=1
        )
        assert _signature(fast) == _signature(sequential)


def _engine_runs(monkeypatch) -> list[str]:
    """Spy on both engines' ``run``: the class names, in call order."""
    from repro.gossip.engine import GossipEngine
    from repro.gossip.event import EventGossipEngine

    ran: list[str] = []
    for cls in (EventGossipEngine, GossipEngine):

        def spy(engine, _original=cls.run):
            ran.append(type(engine).__name__)
            return _original(engine)

        monkeypatch.setattr(cls, "run", spy)
    return ran


_CHURN = ((2, 2, 5),)


class TestAutoEngineRule:
    """``engine=""`` picks by protocol, and the runner runs what it picks."""

    @pytest.mark.parametrize(
        "config",
        [
            default_scenario_config().replace(loss_probability=0.2),
            default_scenario_config().replace(churn=_CHURN),
            default_scenario_config().replace(churn=_CHURN, churn_reset=True),
            default_scenario_config(time_model=TimeModel.ASYNCHRONOUS),
        ],
        ids=["loss", "pause-churn", "reset-churn", "async"],
    )
    def test_uniform_ag_runs_on_the_event_engine(self, config, monkeypatch):
        spec = ScenarioSpec(topology="ring", n=8, k=4, config=config, trials=2, seed=4)
        scenario = spec.materialize()
        assert scenario.select_engine() == ("event", "auto: uniform AG")
        ran = _engine_runs(monkeypatch)
        results = scenario.measure()
        assert ran == ["EventGossipEngine"] * 2
        assert results == spec.replace(engine="scalar").materialize().measure()

    @pytest.mark.parametrize(
        "protocol,engine,reason",
        [
            ("tag", "EventGossipEngine", ("event", "auto: TAG")),
            ("spanning_tree", "GossipEngine", ("scalar", "auto: no event-engine support")),
        ],
        ids=["tag", "spanning_tree"],
    )
    def test_tag_runs_on_the_event_engine_and_trees_on_the_scalar_one(
        self, protocol, engine, reason, monkeypatch
    ):
        scenario = ScenarioSpec(
            topology="barbell", n=8, protocol=protocol, trials=2, seed=4
        ).materialize()
        assert scenario.select_engine() == reason
        ran = _engine_runs(monkeypatch)
        scenario.measure()
        assert ran == [engine] * 2

    @pytest.mark.parametrize("time_model", list(TimeModel), ids=lambda m: m.value)
    @pytest.mark.parametrize("spanning_tree", ["brr", "uniform_broadcast", "is", "bfs_oracle"])
    def test_standalone_trees_run_on_the_scalar_engine(
        self, spanning_tree, time_model, monkeypatch
    ):
        scenario = ScenarioSpec(
            topology="barbell", n=10, protocol="spanning_tree",
            spanning_tree=spanning_tree, trials=3, seed=11,
            config=default_scenario_config(time_model=time_model),
        ).materialize()
        assert scenario.select_engine() == ("scalar", "auto: no event-engine support")
        ran = _engine_runs(monkeypatch)
        results = scenario.measure()
        assert ran == ["GossipEngine"] * 3
        assert _signature(results) == _signature(measure_protocol(
            scenario.graph, scenario.protocol_factory, scenario.config,
            trials=3, seed=11,
        ))

    def test_tag_under_reset_churn_runs_on_the_event_engine(self, monkeypatch):
        spec = ScenarioSpec(
            topology="barbell", n=8, protocol="tag", trials=2, seed=4,
            config=default_scenario_config().replace(churn=_CHURN, churn_reset=True),
        )
        scenario = spec.materialize()
        assert scenario.select_engine() == ("event", "auto: TAG")
        ran = _engine_runs(monkeypatch)
        results = scenario.measure()
        assert ran == ["EventGossipEngine"] * 2
        assert results == spec.replace(engine="scalar").materialize().measure()

    def test_run_single_stays_on_the_scalar_engine(self, monkeypatch):
        scenario = ScenarioSpec(topology="ring", n=8, k=4).materialize()
        ran = _engine_runs(monkeypatch)
        scenario.run_single()
        assert ran == ["GossipEngine"]

    @pytest.mark.parametrize("engine", ["scalar", "event"])
    def test_a_pinned_engine_is_kept(self, engine):
        scenario = ScenarioSpec(topology="ring", n=8, k=4, engine=engine).materialize()
        assert scenario.select_engine() == (engine, "pinned")

    def test_an_unknown_pinned_engine_is_refused(self):
        from repro.errors import EngineError
        from repro.experiments.parallel import select_engine

        factory = ScenarioSpec(topology="ring", n=8, k=4).materialize().protocol_factory
        with pytest.raises(EngineError, match="unknown engine 'batch'"):
            select_engine(factory, "batch")


class TestParallelEqualsSequential:
    def test_trial_for_trial_determinism(self, uniform_case):
        sequential = measure_protocol(
            uniform_case.graph, uniform_case.protocol_factory, uniform_case.config,
            trials=5, seed=77,
        )
        parallel = measure_protocol_parallel(
            uniform_case.graph, uniform_case.protocol_factory, uniform_case.config,
            trials=5, seed=77, jobs=3,
        )
        assert _signature(parallel) == _signature(sequential)

    def test_run_trials_parallel_stats(self, uniform_case):
        sequential = run_trials(
            uniform_case.graph, uniform_case.protocol_factory, uniform_case.config,
            trials=4, seed=31,
        )
        parallel = run_trials_parallel(
            uniform_case.graph, uniform_case.protocol_factory, uniform_case.config,
            trials=4, seed=31, jobs=2,
        )
        assert parallel.samples == sequential.samples

    def test_unpicklable_factory_falls_back_in_process(self, uniform_case):
        delegate = uniform_case.protocol_factory
        parallel = measure_protocol_parallel(
            uniform_case.graph,
            lambda graph, rng: delegate(graph, rng),  # lambdas cannot be pickled
            uniform_case.config,
            trials=3, seed=8, jobs=2,
        )
        sequential = measure_protocol(
            uniform_case.graph, uniform_case.protocol_factory, uniform_case.config,
            trials=3, seed=8,
        )
        assert _signature(parallel) == _signature(sequential)

    def test_scalar_engine_with_jobs_still_matches(self, uniform_case):
        # A spec pinning the scalar engine combined with worker processes
        # must honour both: the workers run the sequential scalar path, and
        # the results still equal the reference runner's.
        sequential = measure_protocol(
            uniform_case.graph, uniform_case.protocol_factory, uniform_case.config,
            trials=4, seed=19,
        )
        parallel = measure_protocol_parallel(
            uniform_case.spec.replace(engine="scalar"), trials=4, seed=19, jobs=2
        )
        assert _signature(parallel) == _signature(sequential)

    def test_chunking_is_balanced_and_ordered(self):
        assert _chunks(range(7), 3) == [[0, 1, 2], [3, 4], [5, 6]]
        assert _chunks(range(2), 5) == [[0], [1]]

    def test_invalid_arguments_rejected(self, uniform_case):
        with pytest.raises(AnalysisError):
            measure_protocol_parallel(
                uniform_case.graph, uniform_case.protocol_factory,
                uniform_case.config, trials=0, seed=0,
            )
        with pytest.raises(AnalysisError):
            measure_protocol_parallel(
                uniform_case.graph, uniform_case.protocol_factory,
                uniform_case.config, trials=2, seed=0, jobs=0,
            )

    def test_run_campaign_rejects_non_positive_jobs(self, uniform_case, tmp_path):
        with pytest.raises(AnalysisError):
            run_campaign(_campaign(uniform_case.spec), store=ResultStore(tmp_path), jobs=0)


class TestCampaignWiring:
    def test_campaign_on_the_fast_engine_matches_sequential(self, tmp_path):
        specs = [
            ScenarioSpec(topology=topology, n=n, k=4, trials=3, seed=2)
            for topology, n in (("ring", 8), ("grid", 9))
        ]
        fast = run_campaign(_campaign(*specs), store=ResultStore(tmp_path / "fast"))
        slow = run_campaign(
            _campaign(*(spec.replace(engine="scalar") for spec in specs)),
            store=ResultStore(tmp_path / "slow"),
        )
        assert [o.stats.samples for o in fast.outcomes] == [
            o.stats.samples for o in slow.outcomes
        ]

    def test_campaign_runs_each_unit_on_its_spec_engine(self, monkeypatch, tmp_path):
        from repro.gossip.event import EventGossipEngine
        from repro.scenarios import get_scenario

        runs = []
        original_run = EventGossipEngine.run

        def spy(engine):
            runs.append(engine)
            return original_run(engine)

        monkeypatch.setattr(EventGossipEngine, "run", spy)
        spec = get_scenario("event/er-logn").replace(n=64, trials=2, seed=3)
        [outcome] = run_campaign(_campaign(spec), store=ResultStore(tmp_path)).outcomes
        # The spec pins engine="event", so both trials run on it.
        assert len(runs) == 2
        assert outcome.stats == spec.materialize().run()


class TestSharedProcessPool:
    def test_pooled_runs_match_per_call_pools(self, uniform_case):
        from repro.experiments import shared_process_pool

        direct = measure_protocol_parallel(
            uniform_case.graph, uniform_case.protocol_factory,
            uniform_case.config, trials=4, seed=9, jobs=2,
        )
        with shared_process_pool(2):
            pooled_one = measure_protocol_parallel(
                uniform_case.graph, uniform_case.protocol_factory,
                uniform_case.config, trials=4, seed=9, jobs=2,
            )
            # Second call inside the same block reuses the same workers.
            pooled_two = measure_protocol_parallel(
                uniform_case.graph, uniform_case.protocol_factory,
                uniform_case.config, trials=4, seed=9, jobs=2,
            )
        signature = lambda results: [(r.rounds, r.timeslots) for r in results]
        assert signature(pooled_one) == signature(direct)
        assert signature(pooled_two) == signature(direct)

    def test_nesting_rejected_and_pool_cleared_on_exit(self):
        from repro.experiments import parallel
        from repro.experiments.parallel import shared_process_pool

        with shared_process_pool(1):
            assert parallel._SHARED_POOL is not None
            with pytest.raises(AnalysisError, match="does not nest"):
                with shared_process_pool(1):
                    pass
        assert parallel._SHARED_POOL is None

    def test_rejects_non_positive_jobs(self):
        from repro.experiments.parallel import shared_process_pool

        with pytest.raises(AnalysisError):
            with shared_process_pool(0):
                pass
