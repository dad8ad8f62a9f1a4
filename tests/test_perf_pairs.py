"""``tools/perf_pairs.py``: its verdict on canned pairs, and its exit status.

No benchmark runs here: the verdict is a pure function of the numbers, and
the command-line tests point the checkouts' ``BENCHMARK.json`` command at a
one-line script that prints a canned result.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location(
    "perf_pairs", ROOT / "tools" / "perf_pairs.py"
)
perf_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(perf_pairs)

#: Ten parent runs: median 2.935, quartiles 2.9075 and 2.9675.
PARENT = [2.90, 2.95, 2.93, 2.99, 2.88, 2.94, 3.01, 2.92, 2.96, 2.91]


def _scaled(factor: float) -> list[float]:
    return [value * factor for value in PARENT]


def test_quartiles_are_the_exclusive_method():
    assert perf_pairs.quartiles(PARENT) == pytest.approx((2.9075, 2.935, 2.9675))


def test_better_in_every_pair_by_more_than_the_spread_is_a_gain():
    assert perf_pairs.wins(PARENT, _scaled(0.84), "lower") == 10
    assert perf_pairs.verdict(PARENT, _scaled(0.84), "lower", 0.25) == "gain"


def test_nine_wins_of_ten_suffice_and_eight_do_not():
    nine = _scaled(0.84)
    nine[0] = PARENT[0] * 1.01
    assert perf_pairs.verdict(PARENT, nine, "lower", 0.25) == "gain"
    eight = list(nine)
    eight[1] = PARENT[1]  # a tie counts for neither side
    assert perf_pairs.wins(PARENT, eight, "lower") == 8
    assert perf_pairs.verdict(PARENT, eight, "lower", 0.25) == "within bound"


def test_fewer_than_ten_pairs_are_no_gain():
    assert perf_pairs.wins(PARENT[:9], _scaled(0.84)[:9], "lower") == 9
    assert perf_pairs.verdict(PARENT[:9], _scaled(0.84)[:9], "lower", 0.25) == (
        "within bound"
    )


def test_a_gap_inside_the_parents_spread_is_no_gain():
    change = [value - 0.01 for value in PARENT]
    assert perf_pairs.wins(PARENT, change, "lower") == 10
    assert perf_pairs.verdict(PARENT, change, "lower", 0.25) == "within bound"


def test_a_median_past_the_bound_is_worse():
    assert perf_pairs.verdict(PARENT, _scaled(1.3), "lower", 0.25) == "worse"
    assert perf_pairs.verdict(PARENT, _scaled(1.2), "lower", 0.25) == "within bound"
    assert perf_pairs.verdict(PARENT, _scaled(1.2), "lower", 0.1) == "worse"


#: Ten parent runs whose quartiles, 0.875 and 1.325, lie further apart than
#: a 25% bound on their median, 1.05.
WIDE = [1.0, 1.5, 0.8, 1.3, 1.1, 0.9, 1.4, 1.2, 0.7, 1.0]


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    assert perf_pairs.verdict(WIDE, WIDE, "lower", 0.25) == "unresolved"
    slightly_lower = [value - 0.01 for value in WIDE]
    assert perf_pairs.verdict(WIDE, slightly_lower, "lower", 0.25) == "unresolved"
    # Unless every change run is better than every parent run.
    assert perf_pairs.verdict(WIDE, [0.65] * 10, "lower", 0.25) == "within bound"
    # A median past the bound is still worse.
    assert perf_pairs.verdict(WIDE, [2.0] * 10, "lower", 0.25) == "worse"
    # The same runs are no wider than a 50% bound.
    assert perf_pairs.verdict(WIDE, WIDE, "lower", 0.5) == "within bound"


def test_a_higher_is_better_metric_is_mirrored():
    assert perf_pairs.verdict(PARENT, _scaled(1.2), "higher", 0.25) == "gain"
    assert perf_pairs.verdict(PARENT, _scaled(0.7), "higher", 0.25) == "worse"
    assert perf_pairs.verdict(PARENT, _scaled(0.8), "higher", 0.25) == "within bound"


def _checkout(path: Path, line: dict | None) -> Path:
    """A fake checkout whose benchmark command, run from its root, prints
    ``line`` (with ``None``, it fails and prints nothing)."""
    path.mkdir()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    code = "import pathlib; print(pathlib.Path('result.json').read_text())"
    declared["command"] = [sys.executable, "-c", code]
    (path / "BENCHMARK.json").write_text(json.dumps(declared))
    if line is not None:
        (path / "result.json").write_text(json.dumps(line))
    return path


def _result(trial_s: float, *, correct=True, failed=0) -> dict:
    metrics = {
        "trial_s": trial_s, "timeslot_us": 3.0, "setup_s": 0.1, "peak_rss_mib": 60.0
    }
    return {
        "correct": correct,
        "attempted": 1,
        "failed": failed,
        "metrics": {name: {"value": value} for name, value in metrics.items()},
    }


def test_the_command_prints_every_run_and_a_verdict_per_metric(tmp_path, capsys):
    parent = _checkout(tmp_path / "parent", _result(1.0))
    change = _checkout(tmp_path / "change", _result(0.8))
    status = perf_pairs.main(
        [str(parent), str(change), "--workload", "w", "--pairs", "3"]
    )
    lines = capsys.readouterr().out.splitlines()
    assert status == 0
    # Alternating order: the parent runs first in pairs 1 and 3.
    assert [line.split(":")[0] for line in lines if line.startswith("pair")] == [
        "pair 1/3 parent", "pair 1/3 change",
        "pair 2/3 change", "pair 2/3 parent",
        "pair 3/3 parent", "pair 3/3 change",
    ]
    verdicts = {line.split()[0]: line.split("  ")[-1] for line in lines[-4:]}
    # Better in all three pairs, but a gain needs ten.
    assert verdicts == {
        "trial_s": "within bound",
        "timeslot_us": "within bound",
        "setup_s": "within bound",
        "peak_rss_mib": "within bound",
    }


@pytest.mark.parametrize(
    "line",
    [None, _result(0.8, correct=False), _result(0.8, failed=1)],
    ids=["no-result", "not-correct", "failed"],
)
def test_a_run_that_is_not_correct_fails_the_command(tmp_path, capsys, line):
    parent = _checkout(tmp_path / "parent", _result(1.0))
    change = _checkout(tmp_path / "change", line)
    assert perf_pairs.main([str(parent), str(change), "--workload", "w"]) == 1
    assert "error:" in capsys.readouterr().err
