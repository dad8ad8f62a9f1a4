"""E7 — Figure 1 / Theorem 2: the queueing reduction.

Reproduces the chain of systems in Figure 1 and the appendix (Figures 3–4):

* the stochastic-dominance chain  t(Q^tree) ⪯ t(Q^line) ⪯ t(Q̂^line),
* the closed-form bound (4k + 4·l_max + 16 ln n)/μ of Lemma 7 sitting above
  all of them, and
* the end-to-end reduction: the queueing prediction upper-bounds the measured
  stopping time of real uniform algebraic gossip on the same graph.
"""

from __future__ import annotations

import numpy as np

from _utils import PEDANTIC, bench_store, report
from repro.core import SimulationConfig, TimeModel
from repro.graphs import bfs_spanning_tree, grid_graph
from repro.queueing import (
    QueueingReduction,
    TreeQueueNetwork,
    lemma7_stopping_time_bound,
    line_tree,
    open_line_stopping_time,
)
from repro.scenarios import ScenarioSpec

QUEUE_TRIALS = 400
GOSSIP_TRIALS = 3


def _dominance_chain():
    """Figure 1 (c)-(e): tree ⪯ line ⪯ all-at-the-end line ⪯ Lemma 7 bound."""
    rng = np.random.default_rng(707)
    graph = grid_graph(25)
    tree = bfs_spanning_tree(graph, 0)
    n = graph.number_of_nodes()
    k = n - 1
    mu = 1.0
    customers = {node: 1 for node in tree.parent}

    tree_samples = TreeQueueNetwork(tree, mu, customers).simulate_many(QUEUE_TRIALS, rng)
    depth = tree.depth
    line = line_tree(depth + 1)
    per_level: dict[int, int] = {}
    for node in tree.parent:
        per_level[tree.depth_of(node)] = per_level.get(tree.depth_of(node), 0) + 1
    line_samples = TreeQueueNetwork(line, mu, per_level).simulate_many(QUEUE_TRIALS, rng)
    far_samples = TreeQueueNetwork(line, mu, {depth: k}).simulate_many(QUEUE_TRIALS, rng)
    open_samples = np.array(
        [open_line_stopping_time(k, depth + 1, mu, rng) for _ in range(QUEUE_TRIALS)]
    )
    bound = lemma7_stopping_time_bound(k, depth + 1, n, mu)
    rows = []
    for name, samples in [
        ("Q_tree (Fig. 1c)", tree_samples),
        ("Q_line (Fig. 1d)", line_samples),
        ("Q_line, all customers at far end", far_samples),
        ("open Jackson line, λ=μ/2 (Fig. 1e)", open_samples),
    ]:
        rows.append(
            {
                "system": name,
                "mean": round(float(np.mean(samples)), 2),
                "p95": round(float(np.quantile(samples, 0.95)), 2),
                "lemma7_bound": round(bound, 2),
            }
        )
    return rows


def _reduction_vs_gossip():
    """Theorem 1 end to end: queueing prediction vs measured gossip rounds."""
    rows = []
    for name, topology in [("ring(16)", "ring"), ("grid(16)", "grid")]:
        scenario = ScenarioSpec(
            topology=topology,
            n=16,
            config=SimulationConfig(
                field_size=2, payload_length=2,
                time_model=TimeModel.SYNCHRONOUS, max_rounds=500_000,
            ),
            trials=GOSSIP_TRIALS,
            seed=708,
        ).materialize()
        # The gossip side of the reduction is uniform AG, so it runs on the
        # event engine; the measured rounds match the sequential path and
        # are read through the shared result store on re-runs.
        stats = scenario.run(store=bench_store())
        reduction = QueueingReduction(
            scenario.graph, k=scenario.n, q=2, time_model=TimeModel.SYNCHRONOUS
        )
        prediction = reduction.predict_for_root(0, np.random.default_rng(709), trials=200)
        rows.append(
            {
                "graph": name,
                "measured_mean_rounds": round(stats.mean, 1),
                "measured_p95_rounds": round(stats.whp, 1),
                "queueing_simulation_p95": round(prediction.simulated_whp, 1),
                "theorem2_analytic_bound": round(reduction.predicted_rounds_upper_bound(), 1),
            }
        )
    return rows


def test_theorem2_dominance_chain(benchmark):
    rows = benchmark.pedantic(_dominance_chain, **PEDANTIC)
    report(
        "E7-queueing-dominance",
        "Figure 1 / Theorem 2 — stochastic-dominance chain of queueing systems "
        f"(BFS tree of grid(25), μ=1, {QUEUE_TRIALS} realisations each)",
        rows,
        notes=[
            "Each transformation of the proof can only increase the stopping time; "
            "the means must therefore be non-decreasing down the table, and every "
            "p95 must stay below the explicit Lemma 7 bound.",
        ],
    )
    means = [row["mean"] for row in rows]
    assert all(earlier <= later * 1.1 for earlier, later in zip(means, means[1:]))
    assert all(row["p95"] <= row["lemma7_bound"] for row in rows)


def test_theorem1_reduction_upper_bounds_gossip(benchmark):
    rows = benchmark.pedantic(_reduction_vs_gossip, **PEDANTIC)
    report(
        "E7-reduction-vs-gossip",
        "Theorem 1 — queueing-reduction prediction vs measured uniform AG "
        "(synchronous, q=2, k=n)",
        rows,
        notes=[
            "The reduction is a worst-case over-approximation, so its analytic "
            "bound and its simulated queueing p95 must both sit above the "
            "measured gossip stopping time.",
        ],
    )
    for row in rows:
        assert row["measured_p95_rounds"] <= row["theorem2_analytic_bound"]
