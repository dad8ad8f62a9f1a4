"""E5 — Table 1, rows "TAG + IS" (Theorems 7 and 8).

On graphs with large weak conductance (the barbell and the clique chain) the
IS spanning-tree protocol completes in polylogarithmically many rounds, so for
``k = Ω(polylog n)`` TAG + IS is ``Θ(k)``.  The reproduced series:

* the stopping time of the IS tree construction alone (must stay ≈ polylog n),
* the end-to-end TAG + IS stopping time versus ``k`` (must grow linearly in k
  with a small additive term), for both time models.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from _utils import PEDANTIC, cached_measure, measured_table, report
from repro.analysis import fit_linear
from repro.core import SimulationConfig, TimeModel
from repro.graphs import weak_conductance
from repro.scenarios import ScenarioSpec, default_scenario_config

TRIALS = 3
N = 24


def _is_tree_rounds():
    """Stopping time of the IS spanning-tree construction on clique-based graphs."""
    rows = []
    for name, topology, topology_params in [
        ("barbell", "barbell", {}),
        ("clique_chain(c=3)", "clique_chain", {"cliques": 3}),
    ]:
        scenario = ScenarioSpec(
            topology=topology,
            n=N,
            protocol="spanning_tree",
            spanning_tree="is",
            topology_params=topology_params,
            config=SimulationConfig(max_rounds=10_000),
            trials=TRIALS,
        ).materialize()
        rounds = [r.rounds for r in cached_measure(scenario)]
        rows.append(
            {
                "graph": name,
                "n": scenario.n,
                "weak_conductance(c=3)": round(weak_conductance(scenario.graph, 3), 3),
                "mean_rounds": round(float(np.mean(rounds)), 2),
                "max_rounds": round(float(np.max(rounds)), 2),
                "polylog_reference(4·ln n)": round(4 * math.log(scenario.n), 2),
            }
        )
    return rows


def _tag_is_k_sweep(time_model: TimeModel):
    config = default_scenario_config(time_model=time_model, max_rounds=500_000)
    ks = [6, 12, 18, 24]
    units = [
        (f"k={k}", ScenarioSpec(topology="barbell", n=N, k=k, protocol="tag",
                                spanning_tree="is", config=config))
        for k in ks
    ]
    rows, outcomes = measured_table(units, trials=TRIALS, seed=505, bounds=("lower",))
    fit = fit_linear(ks, [outcome.stats.mean for outcome in outcomes])
    return rows, fit


def test_is_tree_construction_is_polylog(benchmark):
    rows = benchmark.pedantic(_is_tree_rounds, **PEDANTIC)
    report(
        "E5-is-tree-construction",
        "Section 6 — IS spanning-tree construction time on large-weak-conductance graphs",
        rows,
        notes=[
            "The IS bound is O(c(log n + log δ⁻¹)/Φ_c + c²); on these graphs "
            "Φ_c = Θ(1) so a small multiple of log n rounds suffices.",
        ],
    )
    for row in rows:
        assert row["mean_rounds"] <= 4 * row["polylog_reference(4·ln n)"]


@pytest.mark.parametrize("time_model", [TimeModel.SYNCHRONOUS, TimeModel.ASYNCHRONOUS])
def test_table1_tag_is_linear_in_k(benchmark, time_model):
    rows, fit = benchmark.pedantic(_tag_is_k_sweep, args=(time_model,), **PEDANTIC)
    report(
        f"E5-tag-is-{time_model.value}",
        f"Table 1 / Theorems 7–8 — TAG + IS on the barbell (n={N}), k sweep, "
        f"{time_model.value}",
        rows,
        notes=[
            f"linear fit of mean rounds vs k: slope {fit.slope:.2f}, "
            f"intercept {fit.intercept:.1f} (Θ(k) predicts a modest constant slope "
            f"with a polylog-sized intercept).",
        ],
    )
    assert fit.slope <= 6.0
    # The additive term must stay far below the Θ(n²) uniform-gossip regime.
    assert fit.intercept <= 8 * math.log(N) ** 2
