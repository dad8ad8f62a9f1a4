"""E3 — Table 1, row "TAG, any graph" (Theorem 4).

Runs TAG with three different spanning-tree protocols (round-robin broadcast,
uniform broadcast, BFS oracle) on bottlenecked and regular topologies and
compares the measured stopping time against the
``O(k + log n + d(S) + t(S))`` bound.
"""

from __future__ import annotations

from _utils import PEDANTIC, measured_table, report
from repro.core import TimeModel
from repro.scenarios import ScenarioSpec, default_scenario_config

TRIALS = 3
N = 24


def _tag(topology: str, spanning_tree: str, time_model: TimeModel) -> ScenarioSpec:
    return ScenarioSpec(
        topology=topology, n=N, k=N, protocol="tag", spanning_tree=spanning_tree,
        config=default_scenario_config(time_model=time_model, max_rounds=500_000),
    )


def _run():
    sync, async_ = TimeModel.SYNCHRONOUS, TimeModel.ASYNCHRONOUS
    units = [
        ("barbell / BRR / sync", _tag("barbell", "brr", sync)),
        ("barbell / uniform B / sync", _tag("barbell", "uniform_broadcast", sync)),
        ("barbell / BFS oracle / sync", _tag("barbell", "bfs_oracle", sync)),
        ("grid / BRR / sync", _tag("grid", "brr", sync)),
        ("line / BRR / sync", _tag("line", "brr", sync)),
        ("barbell / BRR / async", _tag("barbell", "brr", async_)),
    ]
    rows, _ = measured_table(
        units, trials=TRIALS, seed=303, bounds=("theorem4", "lower")
    )
    return rows


def test_table1_tag_general_bound(benchmark):
    rows = benchmark.pedantic(_run, **PEDANTIC)
    report(
        "E3-tag-general",
        f"Table 1 / Theorem 4 — TAG with several spanning-tree protocols "
        f"(n=k={N}, {TRIALS} trials)",
        rows,
        notes=[
            "theorem4 = k + ln n + d(S) + t(S) with d(S) ≤ 2D and t(S) ≤ 3n "
            "(the B_RR bound); the claim holds when ratio(theorem4) stays below "
            "a constant across rows.",
        ],
    )
    assert all(row["ratio(theorem4)"] <= 1.5 for row in rows)
