"""Walk through the queueing reduction behind Theorem 1 (Figure 1 of the paper).

The proof bounds uniform algebraic gossip by watching helpful packets flow
towards one target node over a BFS tree and treating them as customers in a
feed-forward network of exponential-server queues.  This example builds every
object in that chain for a concrete graph, simulates both the real gossip and
the queueing system, and shows the ordering the theorem promises:

    measured gossip ≤ queueing simulation (p95) ≤ Theorem 2's closed form.

Run with::

    python examples/queueing_reduction.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro import GF, AlgebraicGossip, Generation, SimulationConfig
from repro.core import TimeModel
from repro.experiments import all_to_all_placement, run_trials
from repro.graphs import grid_graph, profile_graph
from repro.queueing import QueueingReduction


def main() -> None:
    graph = grid_graph(16)
    profile = profile_graph(graph)
    n = profile.n
    k = n
    print(f"Graph: 4x4 grid — {profile.describe()}")
    print(f"Task: all-to-all dissemination (k = n = {k}), synchronous EXCHANGE, q = 2\n")

    # --- The reduction objects -------------------------------------------------
    reduction = QueueingReduction(graph, k=k, q=2, time_model=TimeModel.SYNCHRONOUS)
    tree = reduction.bfs_tree(0)
    print(f"Step 1 — BFS tree rooted at node 0: depth l_max = {tree.depth} ≤ D = {profile.diameter}")
    print(f"Step 2 — worst-case service probability per round: μ = {reduction.service_rate():.4f} "
          f"(= (1 - 1/q)/Δ with q=2, Δ={profile.max_degree})")

    prediction = reduction.predict_for_root(0, np.random.default_rng(0), trials=500)
    print(f"Step 3 — queueing system Q_tree: simulated p95 stopping time "
          f"{prediction.simulated_whp:.1f} rounds; Theorem 2 closed form "
          f"{prediction.analytic_bound:.1f} rounds")

    # --- The real protocol ------------------------------------------------------
    config = SimulationConfig(field_size=2, payload_length=2,
                              time_model=TimeModel.SYNCHRONOUS, max_rounds=100_000)

    def factory(g, rng):
        generation = Generation.random(GF(2), k, 2, rng)
        return AlgebraicGossip(g, generation, all_to_all_placement(g), config, rng)

    stats = run_trials(graph, factory, config, trials=5, seed=3)
    print(f"\nMeasured uniform algebraic gossip over 5 trials: {stats.summary()}")

    bound = reduction.predicted_rounds_upper_bound()
    print(f"\nOrdering promised by Theorem 1:")
    print(f"  measured p95 ({stats.whp:.1f})  ≤  queueing p95 ({prediction.simulated_whp:.1f})"
          f"  ≤  closed form ({bound:.1f})")
    assert stats.whp <= prediction.simulated_whp <= bound * 1.01
    print("  ... holds on this instance.")
    print(f"\n{reduction.describe()}")


if __name__ == "__main__":
    main()
