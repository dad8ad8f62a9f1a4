"""Determinism and equivalence tests for the batched / parallel trial runners.

The contract under test: for the same root seed, every runner —
sequential, batched, multi-process — produces the *same* results
trial-for-trial, because trial ``i`` always draws from
``derive_rng(seed, f"trial-{i}")`` and the batch engine replicates the
sequential engine's random stream call-for-call.
"""

from __future__ import annotations

import pytest

from repro.analysis.stopping_time import measure_protocol, run_trials
from repro.core import TimeModel
from repro.errors import AnalysisError, SimulationError
from repro.experiments import (
    default_config,
    measure_protocol_batched,
    measure_protocol_parallel,
    run_trials_batched,
    run_trials_parallel,
    tag_case,
    uniform_ag_case,
)
from repro.experiments.parallel import _chunks
from repro.gossip.batch import BatchGossipEngine


def _signature(results):
    return [
        (r.rounds, r.timeslots, r.completed, r.messages_sent, r.helpful_messages,
         dict(r.completion_rounds), dict(r.metadata))
        for r in results
    ]


@pytest.fixture(scope="module")
def uniform_case():
    return uniform_ag_case("grid", 9, 5)


class TestBatchedEqualsSequential:
    @pytest.mark.parametrize("time_model", list(TimeModel), ids=lambda m: m.value)
    def test_bit_identical_results(self, time_model):
        case = uniform_ag_case("ring", 8, 4, config=default_config(time_model=time_model))
        sequential = measure_protocol(
            case.graph, case.protocol_factory, case.config, trials=4, seed=99
        )
        batched = measure_protocol_batched(
            case.graph, case.protocol_factory, case.config, trials=4, seed=99
        )
        assert _signature(batched) == _signature(sequential)

    def test_bit_identical_under_packet_loss(self, uniform_case):
        config = uniform_case.config.replace(loss_probability=0.25)
        sequential = measure_protocol(
            uniform_case.graph, uniform_case.protocol_factory, config, trials=3, seed=5
        )
        batched = measure_protocol_batched(
            uniform_case.graph, uniform_case.protocol_factory, config, trials=3, seed=5
        )
        assert _signature(batched) == _signature(sequential)

    def test_stats_equal_run_trials(self, uniform_case):
        sequential = run_trials(
            uniform_case.graph, uniform_case.protocol_factory, uniform_case.config,
            trials=4, seed=21,
        )
        batched = run_trials_batched(
            uniform_case.graph, uniform_case.protocol_factory, uniform_case.config,
            trials=4, seed=21,
        )
        assert batched.samples == sequential.samples

    def test_tag_runs_on_its_own_batch_path(self):
        # TAG declares the BatchTagEngine strategy; results stay bit-identical.
        case = tag_case("barbell", 10, 10)
        sequential = measure_protocol(
            case.graph, case.protocol_factory, case.config, trials=2, seed=13
        )
        batched = measure_protocol_batched(
            case.graph, case.protocol_factory, case.config, trials=2, seed=13
        )
        assert _signature(batched) == _signature(sequential)

    def test_non_batchable_protocol_falls_back(self, uniform_case):
        # A uniform-AG process with a non-uniform selector declares no batch
        # strategy, so the batched runner must fall back to the sequential
        # engine — and still match it (trivially, being the same path).
        from repro.gossip.communication import RoundRobinSelector
        from repro.protocols import AlgebraicGossip
        from repro.rlnc import Generation
        from repro.gf import GF
        from repro.experiments import all_to_all_placement

        config = default_config()

        def factory(graph, rng):
            generation = Generation.random(GF(16), graph.number_of_nodes(), 2, rng)
            return AlgebraicGossip(
                graph, generation, all_to_all_placement(graph), config, rng,
                selector=RoundRobinSelector(graph, rng),
            )

        import numpy as np

        assert factory(uniform_case.graph, np.random.default_rng(0)).batch_strategy() is None
        sequential = measure_protocol(
            uniform_case.graph, factory, config, trials=2, seed=13
        )
        batched = measure_protocol_batched(
            uniform_case.graph, factory, config, trials=2, seed=13
        )
        assert _signature(batched) == _signature(sequential)

    def test_tag_is_not_rank_only_batchable(self):
        # The rank-only BatchGossipEngine still rejects TAG — TAG's fast path
        # is the dedicated BatchTagEngine, not the uniform-gossip engine.
        case = tag_case("barbell", 10, 10)
        import numpy as np

        process = case.protocol_factory(case.graph, np.random.default_rng(0))
        assert not BatchGossipEngine.is_batchable(process)
        with pytest.raises(SimulationError):
            BatchGossipEngine(
                case.graph, [process], case.config, [np.random.default_rng(0)]
            )


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
            uniform_case.graph, uniform_case.protocol_factory, uniform_case.config,
            trials=4, seed=19, jobs=2, spec=uniform_case.spec.replace(engine="scalar"),
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

    def test_run_sweep_rejects_non_positive_jobs(self, uniform_case):
        from repro.analysis import run_sweep

        with pytest.raises(AnalysisError):
            run_sweep([uniform_case], trials=2, jobs=0)


class TestSweepWiring:
    def test_run_sweep_batched_matches_sequential(self):
        from repro.analysis import run_sweep

        cases = [uniform_ag_case("ring", 8, 4), uniform_ag_case("grid", 9, 4)]
        fast = run_sweep(cases, trials=3, seed=2)
        slow = run_sweep(
            [case.spec.replace(engine="scalar") for case in cases], trials=3, seed=2
        )
        assert [p.stats.samples for p in fast] == [p.stats.samples for p in slow]

    def test_run_sweep_runs_each_case_on_its_spec_engine(self, monkeypatch):
        from repro.analysis import run_sweep
        from repro.gossip.event import EventGossipEngine
        from repro.scenarios import get_scenario

        runs = []
        original_run = EventGossipEngine.run

        def spy(engine):
            runs.append(engine)
            return original_run(engine)

        monkeypatch.setattr(EventGossipEngine, "run", spy)
        spec = get_scenario("event/er-logn").replace(n=64, trials=2)
        [point] = run_sweep([spec], trials=2, seed=3)
        # The spec pins engine="event", so both trials run on it even
        # without a store.
        assert len(runs) == 2
        assert point.stats == spec.materialize().run(seed=3)


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
