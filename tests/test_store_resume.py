"""Resume semantics of store-backed sweeps (the ``make store-check`` contract).

The guarantees under test:

* a sweep interrupted part-way (fewer trials completed, or a writer killed
  mid-append) and *resumed* against the same store computes only the missing
  trials and produces **bit-identical** per-trial results and aggregates to
  an uninterrupted run — on the batch and the scalar execution paths;
* a second fully-cached invocation executes **zero** new trials (verified by
  the :attr:`~repro.store.ResultStore.puts` counter) and runs at least 10x
  faster than the cold run;
* extending a cached table with one new workload simulates only the new
  workload's trials.
"""

from __future__ import annotations

import time

import pytest

from repro.analysis import run_sweep
from repro.experiments import run_experiment
from repro.experiments.parallel import measure_protocol_batched
from repro.scenarios import ScenarioSpec, default_scenario_config
from repro.store import ResultStore

TRIALS = 10
SEED = 42
TOPOLOGIES = ("line", "grid", "complete", "binary_tree")


def _table1_specs(topologies=TOPOLOGIES, engine="") -> list[ScenarioSpec]:
    return [
        ScenarioSpec(
            topology=topology,
            n=16,
            k=8,
            config=default_scenario_config(),
            trials=TRIALS,
            seed=SEED,
            engine=engine,
        )
        for topology in topologies
    ]


def _signature(points) -> list[tuple]:
    """Everything a sweep aggregate is built from, per case."""
    return [
        (point.label, point.stats.samples, point.stats.incomplete_trials)
        for point in points
    ]


def _truncate_final_record(store_root) -> None:
    """Simulate a writer killed mid-append: chop the last shard line in half."""
    shards = sorted(store_root.glob("shards/*/*.jsonl"))
    assert shards, "expected at least one shard to truncate"
    path = shards[-1]
    raw = path.read_bytes().rstrip(b"\n")
    last_line_start = raw.rfind(b"\n") + 1
    cut = last_line_start + (len(raw) - last_line_start) // 2
    path.write_bytes(raw[:cut])


class TestResumeSemantics:
    # The default engine auto-selects the batch engine for these specs.
    @pytest.mark.parametrize("engine", ["", "scalar"], ids=["batch", "scalar"])
    def test_interrupted_sweep_resumes_bit_identical(self, tmp_path, engine):
        specs = _table1_specs(engine=engine)
        cold = run_sweep(specs, trials=TRIALS, seed=SEED)

        # Phase 1: the "interrupted" sweep got through half the trials...
        first_half = ResultStore(tmp_path / "store")
        run_sweep(specs, trials=TRIALS // 2, seed=SEED, store=first_half)
        assert first_half.puts == len(specs) * (TRIALS // 2)
        # ... and its writer died mid-append on the final record.
        _truncate_final_record(tmp_path / "store")

        # Phase 2: resume with the same specs/seed against the same store.
        resumed_store = ResultStore(tmp_path / "store")
        resumed = run_sweep(specs, trials=TRIALS, seed=SEED, store=resumed_store)
        assert _signature(resumed) == _signature(cold)
        # Only the remaining trials (plus the one lost to the truncation)
        # were computed.
        expected_remaining = len(specs) * (TRIALS - TRIALS // 2) + 1
        assert resumed_store.puts == expected_remaining
        assert resumed_store.hits == len(specs) * TRIALS - expected_remaining

    def test_per_trial_results_identical_through_the_store(self, tmp_path):
        spec = _table1_specs(("grid",))[0]
        direct = measure_protocol_batched(spec)
        store = ResultStore(tmp_path)
        # Warm the store with a prefix of the trial range only.
        measure_protocol_batched(spec, trials=4, store=store)
        mixed = measure_protocol_batched(spec, store=store)
        assert mixed == direct
        # And a pure read-back run returns the same objects' worth of data.
        replayed = measure_protocol_batched(spec, store=ResultStore(tmp_path))
        assert replayed == direct

    def test_scalar_and_batch_paths_share_cache_records(self, tmp_path):
        topologies = ("line", "complete")
        batch_store = ResultStore(tmp_path)
        batch_points = run_sweep(
            _table1_specs(topologies), trials=TRIALS, seed=SEED, store=batch_store
        )
        scalar_store = ResultStore(tmp_path)
        scalar_points = run_sweep(
            _table1_specs(topologies, engine="scalar"),
            trials=TRIALS, seed=SEED, store=scalar_store,
        )
        # The engines are bit-identical, so the scalar pass is served
        # entirely from the batch pass's records.
        assert scalar_store.puts == 0
        assert _signature(scalar_points) == _signature(batch_points)


class TestCachedRerun:
    def test_second_invocation_computes_nothing_and_is_10x_faster(self, tmp_path):
        specs = _table1_specs()
        cold_store = ResultStore(tmp_path)
        start = time.perf_counter()
        cold_points = run_sweep(specs, trials=TRIALS, seed=SEED, store=cold_store)
        cold_seconds = time.perf_counter() - start
        assert cold_store.puts == len(specs) * TRIALS

        warm_store = ResultStore(tmp_path)
        start = time.perf_counter()
        warm_points = run_sweep(specs, trials=TRIALS, seed=SEED, store=warm_store)
        warm_seconds = time.perf_counter() - start
        assert warm_store.puts == 0, "a fully cached sweep must compute zero trials"
        assert warm_store.hits == len(specs) * TRIALS
        assert _signature(warm_points) == _signature(cold_points)
        assert warm_seconds * 10 <= cold_seconds, (
            f"cached rerun took {warm_seconds:.3f}s vs {cold_seconds:.3f}s cold "
            "(expected >= 10x faster)"
        )

    def test_extending_a_table_computes_only_the_new_workload(self, tmp_path):
        store = ResultStore(tmp_path)
        run_sweep(_table1_specs(), trials=TRIALS, seed=SEED, store=store)
        extended = _table1_specs(TOPOLOGIES + ("barbell",))
        rerun_store = ResultStore(tmp_path)
        run_sweep(extended, trials=TRIALS, seed=SEED, store=rerun_store)
        # run_sweep derives each case's seed from its *position*, so the new
        # topology must be appended for the existing cases to stay cached.
        assert rerun_store.puts == TRIALS
        assert rerun_store.hits == len(TOPOLOGIES) * TRIALS

    def test_experiment_reruns_are_fully_cached(self, tmp_path):
        first = ResultStore(tmp_path)
        cold = run_experiment("E1-uniform-ag", trials=3, store=first)
        assert first.puts > 0
        second = ResultStore(tmp_path)
        warm = run_experiment("E1-uniform-ag", trials=3, store=second)
        assert second.puts == 0
        assert warm.rows == cold.rows

    def test_fresh_recomputes_without_duplicating_records(self, tmp_path):
        spec = _table1_specs(("grid",))[0]
        store = ResultStore(tmp_path)
        baseline = measure_protocol_batched(spec, store=store)
        fresh_store = ResultStore(tmp_path)
        recomputed = measure_protocol_batched(spec, store=fresh_store, fresh=True)
        assert recomputed == baseline
        assert fresh_store.hits == 0, "fresh must not read the cache"
        assert fresh_store.puts == 0, "identical records must not be re-appended"
        assert fresh_store.gc()["dropped_records"] == 0
