"""Streaming summary records: bit-identity with the full-record path.

The ``asymptotics`` campaign archives only the stopping-time projection of
each trial (:func:`repro.store.summarize_result`) instead of the full
:class:`~repro.core.RunResult`.  This file pins the two contracts that make
that safe:

* **bit-identity** — the stopping-time aggregates computed through the
  summary path equal the full-record path's exactly, for trials produced by
  the scalar and event engines alike (the engines themselves are
  seed-equivalent, so all cross-combinations must agree);
* **streaming** — :meth:`~repro.store.ResultStore.aggregate` never
  materialises :class:`~repro.core.RunResult` objects or populates the
  shard cache when reading a cold shard (the regression that made
  aggregating a large summary shard cost O(shard bytes) of decoded
  results), and summary records survive gc / export / import / diff like
  any other record kind.
"""

from __future__ import annotations

import json

import pytest

from repro.core import RunResult
from repro.core.results import aggregate_results
from repro.errors import StoreError
from repro.experiments.parallel import _measure_trial_indices
from repro.scenarios import get_scenario
from repro.store import (
    ResultStore,
    diff_snapshots,
    load_snapshot,
    summarize_result,
)

ENGINES = ("scalar", "event")


def _sweep_spec(trials: int = 3):
    """A small CSR-eligible workload shared by every test in this file."""
    return get_scenario("event/er-logn").replace(n=48, trials=trials, name="")


def _measure(spec, engine: str):
    """The spec's trials through one engine family (same fingerprint for all).

    ``engine`` is an execution hint excluded from the workload fingerprint,
    so results from different engines land in (and must agree with) the
    same shard.
    """
    pinned = spec.replace(engine=engine)
    scenario = pinned.materialize()
    return _measure_trial_indices(
        scenario.graph,
        scenario.protocol_factory,
        scenario.config,
        pinned.seed,
        list(range(pinned.trials)),
        pinned.engine,
    )


class TestSummaryVsFullBitIdentity:
    def test_engines_agree_and_both_record_kinds_aggregate_identically(
        self, tmp_path
    ):
        spec = _sweep_spec()
        results_by_engine = {engine: _measure(spec, engine) for engine in ENGINES}
        reference = results_by_engine["scalar"]
        for engine in ENGINES:
            assert [r.rounds for r in results_by_engine[engine]] == [
                r.rounds for r in reference
            ], f"engine {engine} diverged from scalar"

        full_store = ResultStore(tmp_path / "full")
        full_store.put_many(spec, dict(enumerate(reference)))
        summary_store = ResultStore(tmp_path / "summary")
        summary_store.put_summaries(spec, dict(enumerate(results_by_engine["event"])))

        expected = aggregate_results(reference)
        assert full_store.aggregate(spec) == expected
        assert summary_store.aggregate(spec) == expected

    def test_summary_payload_is_the_projection_of_the_full_result(self):
        spec = _sweep_spec(trials=1)
        (result,) = _measure(spec, "event")
        summary = summarize_result(result)
        assert summary == {
            "completed": result.completed,
            "k": result.k,
            "n": result.n,
            "rounds": result.rounds,
            "timeslots": result.timeslots,
        }

    def test_full_results_serve_summary_queries_transparently(self, tmp_path):
        spec = _sweep_spec()
        results = _measure(spec, "scalar")
        store = ResultStore(tmp_path / "store")
        store.put_many(spec, dict(enumerate(results)))
        assert store.missing_summary_trials(spec) == []
        # Re-putting matching summaries writes nothing new...
        assert store.put_summaries(spec, dict(enumerate(results))) == 0
        # ...and a contradictory summary fails loudly instead of shadowing.
        wrong = dict(summarize_result(results[0]))
        wrong["rounds"] = wrong["rounds"] + 1
        with pytest.raises(StoreError, match="changed since it was archived"):
            store.put_summaries(spec, {0: wrong})

    def test_mixed_shard_aggregates_in_trial_order(self, tmp_path):
        # Trials 0,2 as summaries and 1 as a full record must aggregate
        # exactly like three full records: samples assemble by trial index,
        # not by record kind.
        spec = _sweep_spec()
        results = _measure(spec, "event")
        store = ResultStore(tmp_path / "store")
        store.put_summaries(spec, {0: results[0], 2: results[2]})
        store.put_many(spec, {1: results[1]})
        assert store.aggregate(spec) == aggregate_results(results)


class TestStreamingAggregateRegression:
    def test_cold_aggregate_never_materialises_run_results(
        self, tmp_path, monkeypatch
    ):
        spec = _sweep_spec()
        results = _measure(spec, "event")
        ResultStore(tmp_path / "store").put_many(spec, dict(enumerate(results)))

        def _boom(cls, data):  # pragma: no cover - must never run
            raise AssertionError("aggregate materialised a RunResult")

        monkeypatch.setattr(RunResult, "from_dict", classmethod(_boom))
        cold = ResultStore(tmp_path / "store")
        stats = cold.aggregate(spec)
        assert stats == aggregate_results(results)
        # The streaming path must not have populated the shard cache either:
        # decoding 10^5 records into the cache is the other half of the
        # regression this guards against.
        assert spec.fingerprint() not in cold._cache

    def test_partial_shard_fails_with_missing_indices(self, tmp_path):
        spec = _sweep_spec()
        results = _measure(spec, "event")
        store = ResultStore(tmp_path / "store")
        store.put_summaries(spec, {0: results[0]})
        with pytest.raises(StoreError, match="missing trial indices"):
            ResultStore(tmp_path / "store").aggregate(spec)


class TestSummaryStoreMaintenance:
    def test_gc_export_import_diff_round_trip(self, tmp_path):
        spec = _sweep_spec()
        results = _measure(spec, "event")
        store = ResultStore(tmp_path / "store")
        store.put_summaries(spec, dict(enumerate(results)))
        expected = store.aggregate(spec)

        stats = store.gc()
        assert stats["removed_shards"] == 0
        assert ResultStore(tmp_path / "store").aggregate(spec) == expected

        export = tmp_path / "snapshot.jsonl"
        exported = store.export(export)
        assert exported == spec.trials

        other = ResultStore(tmp_path / "other")
        assert other.import_file(export) == spec.trials
        assert other.aggregate(spec) == expected

        report = diff_snapshots(load_snapshot(store.root), load_snapshot(export))
        assert report["identical"] == spec.trials
        assert not report["differing"]

    def test_gc_drops_a_shadowed_summary_and_export_keeps_it(self, tmp_path):
        spec = _sweep_spec(trials=1)
        (result,) = _measure(spec, "event")
        store = ResultStore(tmp_path / "store")
        store.put_summaries(spec, {0: result})
        store.put_many(spec, {0: result})  # the full record shadows the summary

        def kinds(path):
            return [json.loads(line)["kind"] for line in path.read_text().splitlines()]

        export = tmp_path / "snapshot.jsonl"
        assert store.export(export) == 2
        assert kinds(export) == ["header", "spec", "result", "summary"]
        assert store.gc()["dropped_records"] == 1
        (shard,) = (tmp_path / "store" / "shards").rglob("*.jsonl")
        assert kinds(shard) == ["spec", "result"]
        assert ResultStore(tmp_path / "store").aggregate(spec) == aggregate_results(
            [result]
        )

    def test_import_rejects_contradictory_summary(self, tmp_path):
        spec = _sweep_spec()
        results = _measure(spec, "event")
        store = ResultStore(tmp_path / "store")
        store.put_summaries(spec, dict(enumerate(results)))
        export = tmp_path / "snapshot.jsonl"
        store.export(export)

        tampered = export.read_text(encoding="utf-8").replace(
            f'"rounds":{results[0].rounds}', f'"rounds":{results[0].rounds + 5}', 1
        )
        assert tampered != export.read_text(encoding="utf-8")
        bad = tmp_path / "tampered.jsonl"
        bad.write_text(tampered, encoding="utf-8")
        with pytest.raises(StoreError, match="conflicts with store"):
            store.import_file(bad)

    def test_trial_keys_count_summaries(self, tmp_path):
        spec = _sweep_spec()
        results = _measure(spec, "event")
        store = ResultStore(tmp_path / "store")
        store.put_summaries(spec, {1: results[1]})
        store.put_many(spec, {0: results[0]})
        assert store.trial_keys(spec.fingerprint()) == [
            (spec.seed, 0),
            (spec.seed, 1),
        ]
