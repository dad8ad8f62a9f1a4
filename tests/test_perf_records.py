"""The committed perf trajectory: recording perfbench runs and gating them.

``benchmarks/record_perfbench.py`` turns ``.perfbench/results`` runs into
``BENCH_perf-<workload>.json`` records, moving the committed record's values
to ``previous``; ``benchmarks/check_regression.py`` fails a metric above
``previous × (1 + bound)`` with the bound from ``BENCHMARK.json``.  The
records written through ``benchmarks/_utils.report_json`` fall under the
same rule when they carry metrics: E9/E10 carry only those (their event
side's absolute times), ratio records keep their floors too.
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK_JSON = ROOT / "BENCHMARK.json"


def _script(name: str):
    path = ROOT / "benchmarks" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_script_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


record_perfbench = _script("record_perfbench")
check_regression = _script("check_regression")
bench_utils = _script("_utils")

END_TO_END = {
    "trial_s": ("s", 1.0),
    "timeslot_us": ("us", 50.0),
    "setup_s": ("s", 0.02),
    "peak_rss_mib": ("MiB", 70.0),
}


def _run(trace: int, metrics: dict[str, tuple[str, float]], *, correct=True) -> dict:
    return {
        "workload": "paper-campaign",
        "seed": 1,
        "seconds": 20,
        "trace": trace,
        "correct": correct,
        "metrics": {name: {"unit": unit, "value": value}
                    for name, (unit, value) in metrics.items()},
        "environment": {"git": "abc123", "src_sha256": "f00d", "nproc": 2},
    }


def _write_results(results: Path, scale: float = 1.0) -> None:
    results.mkdir(parents=True, exist_ok=True)
    untraced = {name: (unit, value * scale) for name, (unit, value) in END_TO_END.items()}
    traced = {"engine.run_s": ("s", 0.5), "gf.eliminate_us": ("us", 30.0)}
    for trace, metrics in ((0, untraced), (1, traced)):
        path = results / f"paper-campaign-seed1-trace{trace}.json"
        path.write_text(json.dumps(_run(trace, metrics)))


def _record(tmp_path: Path, scale: float = 1.0) -> dict:
    _write_results(tmp_path / "results", scale)
    path = record_perfbench.record_workload(
        "paper-campaign", tmp_path / "results", tmp_path / "output"
    )
    return json.loads(path.read_text())


def _check(tmp_path: Path) -> int:
    return check_regression.check_records(tmp_path / "output", BENCHMARK_JSON)


def test_first_record_is_the_baseline(tmp_path, capsys):
    record = _record(tmp_path)
    assert "previous" not in record
    assert record["metrics"]["trial_s"] == {"unit": "s", "value": 1.0}
    assert record["layers"] == {"engine.run_s": 0.5, "gf.eliminate_us": 30.0}
    assert (record["git_rev"], record["src_sha256"]) == ("abc123", "f00d")
    assert _check(tmp_path) == 0
    assert "baseline" in capsys.readouterr().out


def test_a_record_of_an_uncommitted_tree_says_so(tmp_path):
    _write_results(tmp_path / "results")
    path = record_perfbench.record_workload(
        "paper-campaign", tmp_path / "results", tmp_path / "output", dirty=True
    )
    assert json.loads(path.read_text())["git_rev"] == "abc123-dirty"


def test_rerecording_moves_the_committed_values_to_previous(tmp_path):
    _record(tmp_path)
    record = _record(tmp_path, scale=1.1)
    assert record["previous"]["metrics"]["trial_s"] == 1.0
    assert record["metrics"]["trial_s"]["value"] == pytest.approx(1.1)


def test_a_record_within_its_bound_passes(tmp_path):
    _record(tmp_path)
    # 1.09x the previous value: inside every BENCHMARK.json bound (>= 0.1).
    _record(tmp_path, scale=1.09)
    assert _check(tmp_path) == 0


def test_a_record_over_its_ceiling_fails(tmp_path, capsys):
    _record(tmp_path)
    # 1.2x: over peak_rss_mib's 10% bound, within the 25% time bounds.
    _record(tmp_path, scale=1.2)
    assert _check(tmp_path) == 1
    out = capsys.readouterr().out
    assert "peak_rss_mib" in out and "REGRESSION" in out
    assert "trial_s 1.2 s (previous 1, ceiling 1.25) ok" in out


def test_an_incorrect_run_is_not_recorded(tmp_path):
    results = tmp_path / "results"
    _write_results(results)
    path = results / "paper-campaign-seed1-trace1.json"
    path.write_text(json.dumps(_run(1, {}, correct=False)))
    with pytest.raises(ValueError, match="not correct"):
        record_perfbench.record_workload("paper-campaign", results, tmp_path / "output")


def test_speedup_records_keep_their_floor_check(tmp_path):
    output = tmp_path / "output"
    output.mkdir()
    (output / "BENCH_E9-demo.json").write_text(json.dumps({"speedup": 4.0, "min_speedup": 5.0}))
    assert _check(tmp_path) == 1
    (output / "BENCH_E9-demo.json").write_text(json.dumps({"speedup": 6.0, "min_speedup": 5.0}))
    assert _check(tmp_path) == 0


def test_the_bytes_ratio_record_keeps_its_floor_check(tmp_path, capsys):
    output = tmp_path / "output"
    output.mkdir()
    record = output / "BENCH_E14-demo.json"
    record.write_text(json.dumps({"bytes_ratio": 40.0, "min_bytes_ratio": 50.0}))
    assert _check(tmp_path) == 1
    assert "bytes_ratio 40.00x (floor 50.0x" in capsys.readouterr().out
    record.write_text(json.dumps({"bytes_ratio": 1525.077, "min_bytes_ratio": 50.0}))
    assert _check(tmp_path) == 0


def test_a_ratio_record_without_a_headline_fails(tmp_path, capsys):
    output = tmp_path / "output"
    output.mkdir()
    # The pre-rename field name alone is not read as a bytes ratio.
    (output / "BENCH_E14-demo.json").write_text(json.dumps({"min_bytes_ratio": 50.0}))
    assert _check(tmp_path) == 1
    assert "unreadable record" in capsys.readouterr().out


def _ratio_record(tmp_path: Path, monkeypatch, trial_s: float) -> dict:
    """Write an E9-style speedup record with event-side metrics, as E9 does."""
    monkeypatch.setattr(bench_utils, "OUTPUT_DIR", tmp_path / "output")
    path = bench_utils.report_json(
        "E9-demo",
        timings={"event": 1.0},
        speedup=40.0,
        n=128,
        trials=64,
        min_speedup=5.0,
        metrics={"trial_s": (trial_s, "s"), "timeslot_us": (2.0, "us")},
    )
    return json.loads(path.read_text())


def test_a_ratio_record_without_previous_is_the_baseline(tmp_path, monkeypatch, capsys):
    record = _ratio_record(tmp_path, monkeypatch, 1.0)
    assert record["metrics"]["trial_s"] == {"unit": "s", "value": 1.0}
    assert "previous" not in record
    assert _check(tmp_path) == 0
    out = capsys.readouterr().out
    assert "speedup 40.00x (floor 5.0x" in out and "baseline" in out


def test_a_ratio_record_within_its_ceilings_passes(tmp_path, monkeypatch, capsys):
    _ratio_record(tmp_path, monkeypatch, 1.0)
    record = _ratio_record(tmp_path, monkeypatch, 1.2)
    assert record["previous"]["metrics"] == {"timeslot_us": 2.0, "trial_s": 1.0}
    assert _check(tmp_path) == 0
    assert "trial_s 1.2 s (previous 1, ceiling 1.25) ok" in capsys.readouterr().out


def test_a_ratio_record_over_its_ceiling_fails(tmp_path, monkeypatch, capsys):
    _ratio_record(tmp_path, monkeypatch, 1.0)
    _ratio_record(tmp_path, monkeypatch, 1.3)
    assert _check(tmp_path) == 1
    out = capsys.readouterr().out
    assert "trial_s 1.3 s (previous 1, ceiling 1.25) REGRESSION" in out
    # The ratio headline is still checked, and still holds.
    assert "speedup 40.00x (floor 5.0x" in out


def test_a_scaled_down_table_is_printed_but_not_written(tmp_path, monkeypatch, capsys):
    """Smoke runs print their table; only a full-size run writes it, so a
    smoke run never overwrites a committed full-size table."""
    output = tmp_path / "output"
    monkeypatch.setattr(bench_utils, "OUTPUT_DIR", output)
    rows = [{"n": 32, "mean_rounds": 12.5}]
    text = bench_utils.report("E9-demo", "Demo", rows, scaled_down=True)
    assert text in capsys.readouterr().out
    assert not (output / "E9-demo.txt").exists()
    assert bench_utils.report("E9-demo", "Demo", rows) == text
    assert (output / "E9-demo.txt").read_text(encoding="utf-8") == text + "\n"


def _absolute_record(tmp_path: Path, monkeypatch, trial_s: float) -> dict:
    """Write an E9/E10-style record: event-side metrics, no ratio headline."""
    monkeypatch.setattr(bench_utils, "OUTPUT_DIR", tmp_path / "output")
    path = bench_utils.report_json(
        "E9-demo",
        timings={"event": 1.0, "sequential": 4.0},
        n=128,
        trials=64,
        metrics={"trial_s": (trial_s, "s"), "timeslot_us": (2.0, "us")},
    )
    return json.loads(path.read_text())


def test_a_metrics_only_record_is_gated_by_its_ceilings_alone(
    tmp_path, monkeypatch, capsys
):
    record = _absolute_record(tmp_path, monkeypatch, 1.0)
    assert "speedup" not in record and "min_speedup" not in record
    assert _check(tmp_path) == 0
    assert "baseline" in capsys.readouterr().out
    _absolute_record(tmp_path, monkeypatch, 1.2)
    assert _check(tmp_path) == 0
    out = capsys.readouterr().out
    assert "trial_s 1.2 s (previous 1, ceiling 1.25) ok" in out
    assert "speedup" not in out and "unreadable" not in out
    _absolute_record(tmp_path, monkeypatch, 1.6)
    assert _check(tmp_path) == 1
    assert "trial_s 1.6 s (previous 1.2, ceiling 1.5) REGRESSION" in capsys.readouterr().out


@pytest.mark.skipif(shutil.which("git") is None, reason="git is not on PATH")
def test_the_git_revision_marks_a_dirty_checkout(tmp_path):
    """A record names the full commit hash, ``-dirty`` when a tracked file
    differs from it (an untracked file does not count)."""

    def git(*args: str) -> str:
        return subprocess.run(
            ["git", "-c", "user.name=bench", "-c", "user.email=bench@example.invalid",
             "-c", "commit.gpgsign=false", *args],
            cwd=tmp_path, capture_output=True, text=True, check=True,
        ).stdout.strip()

    tracked = tmp_path / "tracked.txt"
    git("init", "-q")
    tracked.write_text("measured\n")
    git("add", "tracked.txt")
    git("commit", "-q", "-m", "measured")
    head = git("rev-parse", "HEAD")
    (tmp_path / "untracked.txt").write_text("notes\n")
    assert bench_utils._git_revision(tmp_path) == head
    assert not record_perfbench.tree_is_dirty(tmp_path)
    tracked.write_text("edited\n")
    assert bench_utils._git_revision(tmp_path) == f"{head}-dirty"
    assert record_perfbench.tree_is_dirty(tmp_path)


def test_store_aggregates_read_summary_records_once_per_trial(tmp_path, capsys):
    from repro.core import RunResult
    from repro.scenarios import ScenarioSpec
    from repro.store import ResultStore

    spec = ScenarioSpec(topology="ring", n=8, k=2, trials=2, seed=1)
    summary = {"completed": True, "k": 2, "n": 8, "rounds": 7, "timeslots": 7}
    full = RunResult(
        rounds=7, timeslots=7, completed=True, n=8, k=2,
        completion_rounds={0: 3, 1: 7}, messages_sent=4, helpful_messages=2,
    )
    store = ResultStore(tmp_path / "store")
    store.put_summaries(spec, {0: summary, 1: {**summary, "rounds": 9}})
    store.put_many(spec, {0: full})  # trial 0 now holds both kinds
    store.export(tmp_path / "export.jsonl")
    for source in (tmp_path / "export.jsonl", tmp_path / "store"):
        assert check_regression.store_aggregates(source) == 0
        out = capsys.readouterr().out
        assert "2 trial record(s), mean=8.0, max=9" in out
        assert "2 trial record(s) across 1 workload(s)" in out
