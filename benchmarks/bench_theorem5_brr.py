"""E4b — Theorem 5: the round-robin broadcast ``B_RR`` finishes in O(n) rounds.

Sweeps ``n`` on several topologies and reports the broadcast completion time
(and the depth of the resulting spanning tree) against the explicit ``3n``
bound for the synchronous model and a constant·n bound for the asynchronous
model.  Also checks Lemma 2 structurally: the degree sum along any shortest
path from the root is at most ``3n``.

Standalone tree construction is a first-class scenario protocol
(``protocol="spanning_tree"``); the per-topology broadcast sweep is a thin
invocation of the ``theorem5`` campaign (:mod:`repro.campaigns.registry`),
whose units this benchmark shares — and whose store records it reuses — with
``python -m repro campaign run theorem5``.  The tree depth comes out of each
trial's result metadata.
"""

from __future__ import annotations

import numpy as np
import pytest

from _utils import PEDANTIC, cached_measure, campaign_unit_specs, report
from repro.analysis import brr_broadcast_upper_bound
from repro.core import TimeModel
from repro.graphs import max_shortest_path_degree_sum

TRIALS = 3
TOPOLOGIES = ["line", "grid", "barbell", "complete", "binary_tree"]
N = 32


def _brr_spec(topology: str, n: int, time_model: TimeModel):
    """One broadcast workload — the theorem5 campaign's unit, resized to n."""
    (spec,) = campaign_unit_specs(
        "theorem5", units=[f"brr-{topology}-{time_model.value}"]
    )
    if n == spec.n:
        return spec
    return spec.replace(n=n, config=spec.config.replace(max_rounds=100 * n))


def _broadcast_rows(time_model: TimeModel):
    specs = campaign_unit_specs("theorem5", group=time_model.value)
    assert [spec.topology for spec in specs] == TOPOLOGIES
    assert all(spec.n == N and spec.trials == TRIALS for spec in specs)
    rows = []
    for spec in specs:
        scenario = spec.materialize()
        # Standalone trees run on the scalar engine, read through the shared
        # result store on re-runs.
        results = cached_measure(scenario)
        rounds = [result.rounds for result in results]
        depths = [result.metadata["tree_depth"] for result in results]
        rows.append(
            {
                "graph": spec.topology,
                "n": scenario.n,
                "mean_rounds": round(float(np.mean(rounds)), 1),
                "max_rounds": int(np.max(rounds)),
                "tree_depth": int(np.max(depths)),
                "bound_3n": int(brr_broadcast_upper_bound(scenario.n)),
                "lemma2_path_degree_sum": max_shortest_path_degree_sum(
                    scenario.graph, source=scenario.root
                ),
            }
        )
    return rows


@pytest.mark.parametrize("time_model", [TimeModel.SYNCHRONOUS, TimeModel.ASYNCHRONOUS])
def test_theorem5_brr_broadcast_linear(benchmark, time_model):
    rows = benchmark.pedantic(_broadcast_rows, args=(time_model,), **PEDANTIC)
    report(
        f"E4b-brr-broadcast-{time_model.value}",
        f"Theorem 5 — round-robin broadcast B_RR stopping time, {time_model.value} (n≈{N})",
        rows,
        notes=[
            "Synchronous: at most 3n rounds deterministically; asynchronous: O(n) "
            "rounds with exponentially high probability (we allow a 4x constant).",
            "lemma2_path_degree_sum ≤ 3n certifies the structural lemma the proof uses.",
        ],
    )
    for row in rows:
        limit = row["bound_3n"] if time_model is TimeModel.SYNCHRONOUS else 4 * row["bound_3n"]
        assert row["max_rounds"] <= limit
        assert row["lemma2_path_degree_sum"] <= 3 * row["n"]


def test_theorem5_brr_scaling_with_n(benchmark):
    def _run():
        rows = []
        for n in (16, 32, 48, 64):
            scenario = _brr_spec("barbell", n, TimeModel.SYNCHRONOUS).materialize()
            rounds = [r.rounds for r in cached_measure(scenario)]
            rows.append(
                {
                    "n": scenario.n,
                    "mean_rounds": round(float(np.mean(rounds)), 1),
                    "bound_3n": int(brr_broadcast_upper_bound(scenario.n)),
                    "ratio": round(float(np.mean(rounds)) / (3 * scenario.n), 3),
                }
            )
        return rows

    rows = benchmark.pedantic(_run, **PEDANTIC)
    report(
        "E4b-brr-scaling",
        "Theorem 5 — B_RR broadcast on the barbell, n sweep (synchronous)",
        rows,
        notes=["The ratio to 3n must stay bounded (the O(n) claim)."],
    )
    assert all(row["ratio"] <= 1.0 for row in rows)
