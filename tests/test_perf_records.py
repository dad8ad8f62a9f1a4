"""The committed perf trajectory: recording perfbench runs and gating them.

``benchmarks/record_perfbench.py`` turns ``.perfbench/results`` runs into
``BENCH_perf-<workload>.json`` records, moving the committed record's values
to ``previous``; ``benchmarks/check_regression.py`` fails a metric above
``previous × (1 + bound)`` with the bound from ``BENCHMARK.json``.
"""

from __future__ import annotations

import importlib.util
import json
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
