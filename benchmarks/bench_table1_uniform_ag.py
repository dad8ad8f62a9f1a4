"""E1 — Table 1, row "Uniform AG, any graph" (Theorem 1).

Measures the stopping time of uniform algebraic gossip on four topologies in
both time models and reports the ratio against the ``O((k + log n + D) Δ)``
bound.  The reproduced series is the per-topology (measured, bound, ratio)
table; the paper's claim holds if every ratio stays below a small constant.
"""

from __future__ import annotations

import pytest

from _utils import PEDANTIC, measured_table, report
from repro.core import TimeModel
from repro.scenarios import ScenarioSpec, default_scenario_config

TOPOLOGIES = ["line", "grid", "complete", "binary_tree", "barbell"]
N = 24
K = 12
TRIALS = 3


def _run(time_model: TimeModel):
    config = default_scenario_config(time_model=time_model, max_rounds=500_000)
    units = [
        (topology, ScenarioSpec(topology=topology, n=N, k=K, config=config))
        for topology in TOPOLOGIES
    ]
    rows, _ = measured_table(
        units, trials=TRIALS, seed=101, bounds=("theorem1", "lower")
    )
    return rows


@pytest.mark.parametrize("time_model", [TimeModel.SYNCHRONOUS, TimeModel.ASYNCHRONOUS])
def test_table1_uniform_ag(benchmark, time_model):
    rows = benchmark.pedantic(_run, args=(time_model,), **PEDANTIC)
    report(
        f"E1-uniform-ag-{time_model.value}",
        f"Table 1 / Theorem 1 — uniform algebraic gossip, {time_model.value} "
        f"(n={N}, k={K}, {TRIALS} trials)",
        rows,
        notes=[
            "ratio(theorem1) = measured p95 rounds / (k + ln n + D)·Δ; the bound "
            "holds when the ratio stays below a constant across topologies.",
            "lower = the Ω(k (+D)) lower bound of Theorem 3.",
        ],
    )
    assert all(row["ratio(theorem1)"] <= 1.5 for row in rows)
