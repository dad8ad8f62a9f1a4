"""Tests for the persistent content-addressed result store.

Covers the three layers of the tentpole contract:

* lossless serialisation — :class:`~repro.core.RunResult` normalises numpy
  scalar/array leakage at construction and round-trips through JSON exactly;
* content addressing — :meth:`~repro.scenarios.ScenarioSpec.fingerprint`
  identifies the workload (not the trial plan or registry identity);
* store integrity — atomic concurrent appends, first-record-wins
  deduplication, corrupt-shard detection with a clear
  :class:`~repro.errors.StoreError`, interrupted-append tolerance and
  gc / export / import round trips.

Resume semantics (interrupt a sweep, resume from the store, compare against
an uninterrupted run) live in ``tests/test_store_resume.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.core import RunResult, json_ready
from repro.errors import AnalysisError, StoreError
from repro.scenarios import ScenarioSpec, default_scenario_config
from repro.store import ResultStore, diff_snapshots, load_snapshot


def _spec(**overrides) -> ScenarioSpec:
    base = dict(
        topology="ring",
        n=8,
        k=4,
        config=default_scenario_config(),
        trials=4,
        seed=11,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


def _result(rounds: int = 7, **metadata) -> RunResult:
    return RunResult(
        rounds=rounds,
        timeslots=rounds * 8,
        completed=True,
        n=8,
        k=4,
        completion_rounds={0: 3, 1: rounds},
        messages_sent=20,
        helpful_messages=9,
        metadata={"protocol": "test", **metadata},
    )


class TestJsonReady:
    def test_numpy_scalars_become_python(self):
        assert json_ready(np.int64(3)) == 3
        assert type(json_ready(np.int64(3))) is int
        assert type(json_ready(np.float64(0.5))) is float
        assert type(json_ready(np.bool_(True))) is bool

    def test_arrays_tuples_and_nested_mappings(self):
        value = json_ready(
            {"a": np.arange(3), "b": (np.int64(1), [np.float64(2.0)]), 3: None}
        )
        assert value == {"a": [0, 1, 2], "b": [1, [2.0]], "3": None}

    def test_rejects_unserialisable_values(self):
        with pytest.raises(AnalysisError, match="cannot normalise"):
            json_ready({"bad": object()})


class TestRunResultSerialization:
    def test_numpy_leakage_is_normalised_at_construction(self):
        # Regression test: engines assemble results from numpy state, and
        # np.int64 in metadata / completion_rounds used to survive into the
        # dataclass, breaking exact JSON round trips.
        result = RunResult(
            rounds=np.int64(5),
            timeslots=np.int64(40),
            completed=np.bool_(True),
            n=np.int64(8),
            k=np.int64(4),
            completion_rounds={np.int64(0): np.int64(3), 1: np.int64(5)},
            messages_sent=np.int64(12),
            helpful_messages=np.int64(6),
            metadata={"min_rank": np.int64(4), "depths": np.array([1, 2])},
        )
        assert type(result.rounds) is int
        assert all(
            type(key) is int and type(value) is int
            for key, value in result.completion_rounds.items()
        )
        assert result.metadata == {"min_rank": 4, "depths": [1, 2]}
        assert type(result.metadata["min_rank"]) is int

    def test_round_trip_is_exact_through_real_json(self):
        result = _result(tree_depth=None, ranks=[3, 4], flag=True)
        restored = RunResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert restored == result
        assert RunResult.from_json(result.to_json()) == result

    def test_completion_round_keys_restore_to_int(self):
        restored = RunResult.from_json(_result().to_json())
        assert set(restored.completion_rounds) == {0, 1}

    def test_unknown_fields_rejected(self):
        data = _result().to_dict()
        data["bogus"] = 1
        with pytest.raises(AnalysisError, match="bogus"):
            RunResult.from_dict(data)

    def test_engine_produced_result_round_trips(self):
        result = _spec(trials=1).materialize().run_single()
        assert RunResult.from_json(result.to_json()) == result


class TestFingerprint:
    def test_stable_across_processes_and_plan_fields(self):
        spec = _spec()
        fingerprint = spec.fingerprint()
        assert len(fingerprint) == 64
        assert spec.replace(trials=99).fingerprint() == fingerprint
        assert spec.replace(seed=123).fingerprint() == fingerprint
        assert spec.replace(name="table-1", description="x").fingerprint() == fingerprint

    def test_workload_fields_change_it(self):
        fingerprint = _spec().fingerprint()
        assert _spec(n=10).fingerprint() != fingerprint
        assert _spec(k=3).fingerprint() != fingerprint
        assert _spec(topology="grid").fingerprint() != fingerprint
        assert (
            _spec(config=default_scenario_config(field_size=2)).fingerprint()
            != fingerprint
        )

    def test_random_placement_folds_seed_back_in(self):
        spec = _spec(placement="random")
        assert spec.replace(seed=12).fingerprint() != spec.fingerprint()
        # ... but the trial count still does not matter.
        assert spec.replace(trials=50).fingerprint() == spec.fingerprint()


class TestResultStoreBasics:
    def test_put_get_and_persistence_across_instances(self, tmp_path):
        spec = _spec()
        writer = ResultStore(tmp_path / "store")
        assert writer.missing_trials(spec) == [0, 1, 2, 3]
        assert writer.put(spec, 0, _result())
        assert not writer.put(spec, 0, _result()), "duplicate put must be a no-op"
        reader = ResultStore(tmp_path / "store")
        assert reader.get(spec, 0) == _result()
        assert reader.get(spec, 1) is None
        assert reader.hits == 1 and reader.misses == 1
        assert reader.missing_trials(spec) == [1, 2, 3]

    def test_seed_is_part_of_the_key(self, tmp_path):
        spec = _spec(seed=11)
        store = ResultStore(tmp_path)
        store.put(spec, 0, _result())
        assert store.get(spec, 0, seed=12) is None
        assert store.get(spec.replace(seed=12), 0) is None
        assert store.get(spec, 0, seed=11) == _result()

    def test_aggregate_requires_full_range(self, tmp_path):
        spec = _spec(trials=3)
        store = ResultStore(tmp_path)
        store.put_many(spec, {0: _result(5), 2: _result(9)})
        with pytest.raises(StoreError, match=r"missing trial indices \[1\]"):
            store.aggregate(spec)
        store.put(spec, 1, _result(7))
        stats = store.aggregate(spec)
        assert stats.samples == (5.0, 7.0, 9.0)

    def test_spec_round_trips_through_the_shard_header(self, tmp_path):
        spec = _spec()
        store = ResultStore(tmp_path)
        store.put(spec, 0, _result())
        # Identity/plan fields are serialised with the spec, so the rebuilt
        # value equals the original exactly.
        assert ResultStore(tmp_path).spec(spec.fingerprint()) == spec

    def test_fingerprint_prefix_resolution(self, tmp_path):
        spec = _spec()
        store = ResultStore(tmp_path)
        store.put(spec, 0, _result())
        fingerprint = spec.fingerprint()
        assert store.resolve_fingerprint(fingerprint[:8]) == fingerprint
        with pytest.raises(StoreError, match="no shard"):
            store.resolve_fingerprint("ffffffff" * 8)

    def test_bare_fingerprint_needs_explicit_seed_and_cannot_put(self, tmp_path):
        spec = _spec()
        store = ResultStore(tmp_path)
        store.put(spec, 0, _result())
        fingerprint = spec.fingerprint()
        with pytest.raises(StoreError, match="seed"):
            store.get(fingerprint, 0)
        assert store.get(fingerprint, 0, seed=spec.seed) == _result()
        with pytest.raises(StoreError, match="full ScenarioSpec"):
            store.put_many(fingerprint, {1: _result()}, seed=spec.seed)

    def test_missing_store_directory_rejected_without_create(self, tmp_path):
        with pytest.raises(StoreError, match="does not exist"):
            ResultStore(tmp_path / "nope", create=False)

    def test_root_colliding_with_a_file_is_a_store_error(self, tmp_path):
        collision = tmp_path / "not-a-dir"
        collision.write_text("occupied")
        with pytest.raises(StoreError, match="cannot create result store"):
            ResultStore(collision)


def _concurrent_writer(args) -> int:
    """Worker: open the same store directory and append a disjoint trial range."""
    root, start, stop = args
    from repro.scenarios import ScenarioSpec, default_scenario_config
    from repro.store import ResultStore

    spec = ScenarioSpec(
        topology="ring", n=8, k=4, config=default_scenario_config(), trials=64, seed=11
    )
    store = ResultStore(root)
    results = {
        trial: RunResult(
            rounds=trial + 1, timeslots=(trial + 1) * 8, completed=True, n=8, k=4,
            completion_rounds={0: trial + 1}, metadata={"trial": trial},
        )
        for trial in range(start, stop)
    }
    return store.put_many(spec, results)


class TestConcurrencyAndIntegrity:
    def test_two_interleaved_writer_instances(self, tmp_path):
        spec = _spec(trials=6)
        left = ResultStore(tmp_path)
        right = ResultStore(tmp_path)
        left.put(spec, 0, _result(1))
        right.put(spec, 1, _result(2))
        left.put(spec, 2, _result(3))
        # Each instance cached its own view; a fresh reader sees all appends.
        merged = ResultStore(tmp_path).results(spec)
        assert sorted(merged) == [0, 1, 2]
        assert [merged[t].rounds for t in (0, 1, 2)] == [1, 2, 3]

    def test_two_process_concurrent_appends(self, tmp_path):
        spec = _spec(trials=64)
        ranges = [(str(tmp_path), 0, 32), (str(tmp_path), 32, 64)]
        with ProcessPoolExecutor(max_workers=2) as pool:
            written = list(pool.map(_concurrent_writer, ranges))
        assert written == [32, 32]
        store = ResultStore(tmp_path)
        assert store.missing_trials(spec, 64) == []
        assert [store.get(spec, t).rounds for t in range(64)] == list(range(1, 65))

    def test_racing_duplicate_appends_collapse_first_wins(self, tmp_path):
        spec = _spec()
        left = ResultStore(tmp_path)
        right = ResultStore(tmp_path)
        # `right` caches its (empty) view of the shard before `left` writes,
        # so its later put appends a genuine duplicate record.
        assert right.missing_trials(spec) == [0, 1, 2, 3]
        left.put(spec, 0, _result(5))
        right.put(spec, 0, _result(5))
        reader = ResultStore(tmp_path)
        assert reader.get(spec, 0) == _result(5)
        stats = reader.gc()
        assert stats["dropped_records"] >= 1, "gc must compact the duplicate"
        assert ResultStore(tmp_path).get(spec, 0) == _result(5)

    def _shard_path(self, root, spec):
        fingerprint = spec.fingerprint()
        return root / "shards" / fingerprint[:2] / f"{fingerprint}.jsonl"

    def test_corrupt_committed_line_raises_store_error(self, tmp_path):
        spec = _spec()
        ResultStore(tmp_path).put(spec, 0, _result())
        path = self._shard_path(tmp_path, spec)
        with path.open("a", encoding="utf-8") as handle:
            handle.write("{not json\n")
        with pytest.raises(StoreError, match="not valid JSON"):
            ResultStore(tmp_path).get(spec, 0)

    def test_wrong_fingerprint_in_shard_raises_store_error(self, tmp_path):
        spec = _spec()
        ResultStore(tmp_path).put(spec, 0, _result())
        path = self._shard_path(tmp_path, spec)
        record = json.loads(path.read_text().splitlines()[-1])
        record["fingerprint"] = "0" * 64
        with path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
        with pytest.raises(StoreError, match="does not match its shard"):
            ResultStore(tmp_path).get(spec, 1)

    def test_well_shaped_but_corrupt_payload_raises_store_error(self, tmp_path):
        spec = _spec()
        ResultStore(tmp_path).put(spec, 0, _result())
        path = self._shard_path(tmp_path, spec)
        record = json.loads(path.read_text().splitlines()[-1])
        record["trial"] = 1
        record["result"]["rounds"] = "abc"  # valid JSON, invalid RunResult
        with path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
        with pytest.raises(StoreError, match="corrupt result payload .* trial=1"):
            ResultStore(tmp_path).get(spec, 1)

    def test_unknown_record_kind_raises_store_error(self, tmp_path):
        spec = _spec()
        ResultStore(tmp_path).put(spec, 0, _result())
        path = self._shard_path(tmp_path, spec)
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"kind": "mystery"}\n')
        with pytest.raises(StoreError, match="unknown kind"):
            ResultStore(tmp_path).get(spec, 0)

    def test_interrupted_final_append_is_skipped_not_fatal(self, tmp_path):
        spec = _spec()
        store = ResultStore(tmp_path)
        store.put_many(spec, {0: _result(5), 1: _result(6)})
        path = self._shard_path(tmp_path, spec)
        text = path.read_text(encoding="utf-8")
        # Kill the writer mid-line: drop the trailing newline and half the
        # final record.
        path.write_text(text[: len(text) - len(text.splitlines()[-1]) // 2 - 1])
        survivor = ResultStore(tmp_path)
        assert survivor.get(spec, 0) == _result(5)
        assert survivor.get(spec, 1) is None
        assert survivor.last_load_dropped_partial == 1
        # Resume: re-put the lost trial; the store is whole again.
        survivor.put(spec, 1, _result(6))
        assert ResultStore(tmp_path).results(spec, 2) == {0: _result(5), 1: _result(6)}

    def test_an_append_never_merges_into_another_writers_half_line(self, tmp_path):
        spec = _spec()
        writer = ResultStore(tmp_path)
        writer.put(spec, 0, _result(5))  # the writer now caches the shard
        path = self._shard_path(tmp_path, spec)
        with path.open("a", encoding="utf-8") as handle:
            # Another writer, killed mid-append, behind the cached view.
            handle.write('{"kind": "result", "fingerp')
        writer.put(spec, 1, _result(6))
        assert ResultStore(tmp_path).results(spec, 2) == {0: _result(5), 1: _result(6)}


class TestGcExportImport:
    def test_gc_keep_prunes_other_workloads(self, tmp_path):
        keep_spec, drop_spec = _spec(), _spec(topology="grid", n=9)
        store = ResultStore(tmp_path)
        store.put(keep_spec, 0, _result())
        store.put(drop_spec, 0, _result())
        stats = store.gc(keep=[keep_spec])
        assert stats["kept_shards"] == 1 and stats["removed_shards"] == 1
        fresh = ResultStore(tmp_path)
        assert fresh.fingerprints() == [keep_spec.fingerprint()]
        assert fresh.get(keep_spec, 0) == _result()

    def test_gc_keep_spec_matching_no_shard_refuses_to_prune(self, tmp_path):
        stored_spec = _spec()
        store = ResultStore(tmp_path)
        store.put(stored_spec, 0, _result())
        absent_spec = _spec(topology="grid", n=9)
        with pytest.raises(StoreError, match="refusing to prune"):
            store.gc(keep=[absent_spec])
        assert ResultStore(tmp_path).fingerprints() == [stored_spec.fingerprint()]

    def test_snapshot_of_a_non_store_directory_is_an_error(self, tmp_path):
        (tmp_path / "random-dir").mkdir()
        with pytest.raises(StoreError, match="not a result store"):
            load_snapshot(tmp_path / "random-dir")
        # ... but a real (even empty) store loads fine.
        ResultStore(tmp_path / "empty-store")
        assert load_snapshot(tmp_path / "empty-store") == {}

    def test_gc_keep_accepts_prefixes_and_rejects_misses(self, tmp_path):
        keep_spec, drop_spec = _spec(), _spec(topology="grid", n=9)
        store = ResultStore(tmp_path)
        store.put(keep_spec, 0, _result())
        store.put(drop_spec, 0, _result())
        # A keep entry matching no shard must raise, not prune everything.
        with pytest.raises(StoreError, match="no shard"):
            store.gc(keep=["feedfeed"])
        assert len(ResultStore(tmp_path).fingerprints()) == 2
        # The 12-char prefixes `store ls` prints are valid keep entries.
        store.gc(keep=[keep_spec.fingerprint()[:12]])
        assert ResultStore(tmp_path).fingerprints() == [keep_spec.fingerprint()]

    def test_put_of_a_divergent_result_is_a_loud_error(self, tmp_path):
        spec = _spec()
        store = ResultStore(tmp_path)
        store.put(spec, 0, _result(5))
        assert not store.put(spec, 0, _result(5)), "identical re-put is a no-op"
        with pytest.raises(StoreError, match="behaviour has changed"):
            store.put(spec, 0, _result(6))
        # The original record survives untouched.
        assert ResultStore(tmp_path).get(spec, 0) == _result(5)

    def test_export_import_round_trip(self, tmp_path):
        spec = _spec(trials=3)
        source = ResultStore(tmp_path / "a")
        source.put_many(spec, {t: _result(t + 5) for t in range(3)})
        export_path = tmp_path / "snapshot.jsonl"
        assert source.export(export_path) == 3
        target = ResultStore(tmp_path / "b")
        assert target.import_file(export_path) == 3
        assert target.import_file(export_path) == 0, "re-import must be a no-op"
        report = diff_snapshots(load_snapshot(tmp_path / "a"), load_snapshot(tmp_path / "b"))
        assert report["identical"] == 3
        assert not report["differing"]
        assert ResultStore(tmp_path / "b").aggregate(spec).samples == (5.0, 6.0, 7.0)

    def test_import_of_a_divergent_archive_is_a_loud_error(self, tmp_path):
        spec = _spec(trials=1)
        local = ResultStore(tmp_path / "a")
        other = ResultStore(tmp_path / "b")
        local.put(spec, 0, _result(5))
        other.put(spec, 0, _result(6))
        other.export(tmp_path / "other.jsonl")
        with pytest.raises(StoreError, match="diverging simulation code"):
            local.import_file(tmp_path / "other.jsonl")
        # The local record survives.
        assert ResultStore(tmp_path / "a").get(spec, 0) == _result(5)

    def test_import_refuses_a_conflict_within_the_file(self, tmp_path):
        spec = _spec(trials=1)
        first, second = ResultStore(tmp_path / "a"), ResultStore(tmp_path / "b")
        first.put(spec, 0, _result(5))
        second.put(spec, 0, _result(6))
        first.export(tmp_path / "first.jsonl")
        second.export(tmp_path / "second.jsonl")
        # One export file carrying two different results for one key.
        result_line = next(
            line
            for line in (tmp_path / "second.jsonl").read_text().splitlines()
            if json.loads(line)["kind"] == "result"
        )
        both = tmp_path / "both.jsonl"
        both.write_text((tmp_path / "first.jsonl").read_text() + result_line + "\n")

        target = ResultStore(tmp_path / "target")
        target.put(_spec(topology="grid", n=9), 0, _result(4))
        before = {
            path: path.read_bytes()
            for path in (tmp_path / "target").rglob("*")
            if path.is_file()
        }
        with pytest.raises(StoreError, match="earlier in the same input"):
            target.import_file(both)
        after = {
            path: path.read_bytes()
            for path in (tmp_path / "target").rglob("*")
            if path.is_file()
        }
        assert after == before, "a refused import must write nothing"
        assert ResultStore(tmp_path / "target").missing_trials(spec) == [0]

    def test_diff_detects_divergent_records(self, tmp_path):
        spec = _spec(trials=1)
        left = ResultStore(tmp_path / "a")
        right = ResultStore(tmp_path / "b")
        left.put(spec, 0, _result(5))
        right.put(spec, 0, _result(6))
        report = diff_snapshots(load_snapshot(tmp_path / "a"), load_snapshot(tmp_path / "b"))
        assert report["differing"] == [(spec.fingerprint(), spec.seed, 0)]

    def test_snapshot_reads_exports_and_directories_alike(self, tmp_path):
        spec = _spec(trials=2)
        store = ResultStore(tmp_path / "store")
        store.put_many(spec, {0: _result(4), 1: _result(6)})
        store.export(tmp_path / "snapshot.jsonl")
        from_dir = load_snapshot(tmp_path / "store")
        from_file = load_snapshot(tmp_path / "snapshot.jsonl")
        assert list(from_dir) == [spec.fingerprint()]
        assert from_dir == from_file


def _store_ls(root, spec, out_dir):
    """The trial count ``repro store ls`` prints for the one workload."""
    from repro.cli import main

    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        assert main(["store", "ls", "--store", str(root)]) == 0
    row = printed.getvalue().splitlines()[-1]
    return [cell.strip() for cell in row.split("|")][6]


#: Every way to read a store, and what each must see of a shard that holds
#: trials 0 and 1 (rounds 5 and 6) and ends in half of trial 2's line.
READERS = {
    "get": (
        lambda root, spec, _: [ResultStore(root).get(spec, t) for t in range(3)],
        [_result(5), _result(6), None],
    ),
    "missing_trials": (
        lambda root, spec, _: ResultStore(root).missing_trials(spec), [2, 3]
    ),
    "missing_summary_trials": (
        lambda root, spec, _: ResultStore(root).missing_summary_trials(spec), [2, 3]
    ),
    "aggregate": (
        lambda root, spec, _: ResultStore(root).aggregate(spec, 2).samples, (5.0, 6.0)
    ),
    "trial_keys": (
        lambda root, spec, _: ResultStore(root).trial_keys(spec.fingerprint()),
        [(11, 0), (11, 1)],
    ),
    "export": (
        lambda root, spec, out_dir: ResultStore(root).export(out_dir / "export.jsonl"),
        2,
    ),
    "load_snapshot": (
        lambda root, spec, _: sorted(load_snapshot(root)[spec.fingerprint()].results),
        [(11, 0), (11, 1)],
    ),
    "store_ls": (_store_ls, "2"),
}


class TestInspectionIsReadOnly:
    def test_repair_false_loads_but_never_truncates(self, tmp_path):
        spec = _spec()
        store = ResultStore(tmp_path)
        store.put_many(spec, {0: _result(5), 1: _result(6)})
        fingerprint = spec.fingerprint()
        path = tmp_path / "shards" / fingerprint[:2] / f"{fingerprint}.jsonl"
        truncated = path.read_bytes()[:-10]  # kill the writer mid final record
        path.write_bytes(truncated)

        snapshot = load_snapshot(tmp_path)
        assert list(snapshot[fingerprint].results) == [(spec.seed, 0)]
        assert path.read_bytes() == truncated, "inspection must not modify shards"
        # An append truncates the fragment before it writes.
        writer = ResultStore(tmp_path)
        writer.put(spec, 1, _result(6))
        assert ResultStore(tmp_path).results(spec, 2) == {0: _result(5), 1: _result(6)}

    @pytest.mark.parametrize("reader", list(READERS))
    def test_reading_never_writes(self, reader, tmp_path):
        spec = _spec()
        root = tmp_path / "store"
        ResultStore(root).put_many(spec, {0: _result(5), 1: _result(6)})
        fingerprint = spec.fingerprint()
        path = root / "shards" / fingerprint[:2] / f"{fingerprint}.jsonl"
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"kind":"result","fingerprint":"' + fingerprint[:20])
        before = path.read_bytes()

        read, seen = READERS[reader]
        assert read(root, spec, tmp_path) == seen
        assert path.read_bytes() == before, f"{reader} modified the shard it read"

        # The next append truncates the fragment, and the shard is whole.
        assert ResultStore(root).put_many(spec, {2: _result(7)}) == 1
        assert ResultStore(root).results(spec, 3) == {
            0: _result(5), 1: _result(6), 2: _result(7)
        }
        assert path.read_bytes().count(b"\n") == 4  # the spec and three trials
