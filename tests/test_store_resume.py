"""Resume semantics of store-backed campaigns (the ``make store-check`` contract).

The guarantees under test:

* a campaign interrupted part-way (fewer trials completed, or a writer killed
  mid-append) and *resumed* against the same store computes only the missing
  trials and produces **bit-identical** per-trial results and aggregates to
  an uninterrupted run — on the event and the scalar execution paths;
* a second fully-cached invocation executes **zero** new trials (verified by
  the :attr:`~repro.store.ResultStore.puts` counter) and runs at least 10x
  faster than the cold run;
* extending a cached table with one new workload simulates only the new
  workload's trials.
"""

from __future__ import annotations

import time

import pytest

from repro.campaigns import CampaignSpec, CampaignUnit, get_campaign, run_campaign
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


def _campaign(specs) -> CampaignSpec:
    """An inline campaign with one unit per spec, named after its topology."""
    return CampaignSpec(
        name="store-resume",
        units=tuple(CampaignUnit(name=spec.topology, spec=spec) for spec in specs),
    )


def _run(specs, store, *, trials=None):
    """Run the specs as one campaign through ``store``; returns the outcomes."""
    return run_campaign(_campaign(specs), store=store, trials=trials).outcomes


def _signature(outcomes) -> list[tuple]:
    """Everything a unit's aggregate is built from, per unit."""
    return [
        (outcome.unit.name, outcome.stats.samples, outcome.stats.incomplete_trials)
        for outcome in outcomes
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
    # The rule picks the event engine for these specs.
    @pytest.mark.parametrize("engine", ["", "scalar"], ids=["event", "scalar"])
    def test_interrupted_campaign_resumes_bit_identical(self, tmp_path, engine):
        specs = _table1_specs(engine=engine)
        cold = _run(specs, ResultStore(tmp_path / "cold"))

        # Phase 1: the "interrupted" campaign got through half the trials...
        first_half = ResultStore(tmp_path / "store")
        _run(specs, first_half, trials=TRIALS // 2)
        assert first_half.puts == len(specs) * (TRIALS // 2)
        # ... and its writer died mid-append on the final record.
        _truncate_final_record(tmp_path / "store")

        # Phase 2: resume with the same specs/seed against the same store.
        resumed_store = ResultStore(tmp_path / "store")
        resumed = _run(specs, resumed_store)
        assert _signature(resumed) == _signature(cold)
        # Only the remaining trials (plus the one lost to the truncation)
        # were computed.
        expected_remaining = len(specs) * (TRIALS - TRIALS // 2) + 1
        assert resumed_store.puts == expected_remaining
        assert resumed_store.hits == len(specs) * TRIALS - expected_remaining

    def test_per_trial_results_identical_through_the_store(self, tmp_path):
        scenario = _table1_specs(("grid",))[0].materialize()
        direct = scenario.measure()
        store = ResultStore(tmp_path)
        # Warm the store with a prefix of the trial range only.
        scenario.measure(trials=4, store=store)
        mixed = scenario.measure(store=store)
        assert mixed == direct
        # And a pure read-back run returns the same objects' worth of data.
        replayed = scenario.measure(store=ResultStore(tmp_path))
        assert replayed == direct

    def test_scalar_and_event_paths_share_cache_records(self, tmp_path):
        topologies = ("line", "complete")
        event_store = ResultStore(tmp_path)
        event_outcomes = _run(_table1_specs(topologies), event_store)
        scalar_store = ResultStore(tmp_path)
        scalar_outcomes = _run(_table1_specs(topologies, engine="scalar"), scalar_store)
        # The engines are bit-identical, so the scalar pass is served
        # entirely from the event pass's records.
        assert scalar_store.puts == 0
        assert _signature(scalar_outcomes) == _signature(event_outcomes)


class TestCachedRerun:
    def test_second_invocation_computes_nothing_and_is_10x_faster(self, tmp_path):
        specs = _table1_specs()
        cold_store = ResultStore(tmp_path)
        start = time.perf_counter()
        cold_outcomes = _run(specs, cold_store)
        cold_seconds = time.perf_counter() - start
        assert cold_store.puts == len(specs) * TRIALS

        warm_store = ResultStore(tmp_path)
        start = time.perf_counter()
        warm_outcomes = _run(specs, warm_store)
        warm_seconds = time.perf_counter() - start
        assert warm_store.puts == 0, "a fully cached campaign must compute zero trials"
        assert warm_store.hits == len(specs) * TRIALS
        assert _signature(warm_outcomes) == _signature(cold_outcomes)
        assert warm_seconds * 10 <= cold_seconds, (
            f"cached rerun took {warm_seconds:.3f}s vs {cold_seconds:.3f}s cold "
            "(expected >= 10x faster)"
        )

    def test_extending_a_table_computes_only_the_new_workload(self, tmp_path):
        _run(_table1_specs(), ResultStore(tmp_path))
        # Units carry their own seeds, so the new unit may go anywhere.
        extended = _table1_specs(("barbell",) + TOPOLOGIES)
        rerun_store = ResultStore(tmp_path)
        _run(extended, rerun_store)
        assert rerun_store.puts == TRIALS
        assert rerun_store.hits == len(TOPOLOGIES) * TRIALS

    def test_bounds_campaign_reruns_are_fully_cached(self, tmp_path):
        campaign = get_campaign("bounds")
        first = ResultStore(tmp_path)
        cold = run_campaign(campaign, store=first, trials=2)
        assert first.puts > 0
        second = ResultStore(tmp_path)
        warm = run_campaign(campaign, store=second, trials=2)
        assert second.puts == 0
        assert [a.rows for a in warm.artifacts] == [a.rows for a in cold.artifacts]

    def test_fresh_recomputes_without_duplicating_records(self, tmp_path):
        scenario = _table1_specs(("grid",))[0].materialize()
        store = ResultStore(tmp_path)
        baseline = scenario.measure(store=store)
        fresh_store = ResultStore(tmp_path)
        recomputed = scenario.measure(store=fresh_store, fresh=True)
        assert recomputed == baseline
        assert fresh_store.hits == 0, "fresh must not read the cache"
        assert fresh_store.puts == 0, "identical records must not be re-appended"
        assert fresh_store.gc()["dropped_records"] == 0
