"""Theorem 3 in action: uniform algebraic gossip is Θ(k + D) on constant-degree graphs.

Sweeps the network size on three constant-maximum-degree families (line, ring,
binary tree) with all-to-all workloads (k = n), prints the measured stopping
times next to the Θ(k + D) upper and lower bounds, and fits the growth
exponent — it should be ≈ 1 because both k and D grow linearly (line/ring) or
k dominates (binary tree).

Run with::

    python examples/constant_degree_scaling.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.analysis import (
    constant_degree_upper_bound,
    fit_power_law,
    k_dissemination_lower_bound,
)
from repro.core import SimulationConfig
from repro.experiments import all_to_all_placement, run_trials
from repro.graphs import binary_tree_graph, diameter, line_graph, ring_graph
from repro.scenarios import UniformGossipFactory

FAMILIES = {
    "line": line_graph,
    "ring": ring_graph,
    "binary_tree": binary_tree_graph,
}
SIZES = [8, 16, 24, 32]
TRIALS = 3


def factory_for(graph, config):
    """All-to-all uniform AG over GF(16); the factory type picks the event engine."""
    n = graph.number_of_nodes()
    return UniformGossipFactory(
        field_order=16, k=n, payload_length=2,
        placement=all_to_all_placement(graph), config=config,
    )


def main() -> None:
    config = SimulationConfig(max_rounds=500_000)
    for name, builder in FAMILIES.items():
        print(f"\n=== {name} (constant maximum degree) ===")
        print(f"{'n':>4} {'D':>4} {'measured mean':>14} {'upper k+D':>10} {'lower (k+D)/2':>14} {'ratio':>6}")
        means = []
        for n in SIZES:
            graph = builder(n)
            actual_n = graph.number_of_nodes()
            d = diameter(graph)
            stats = run_trials(
                graph, factory_for(graph, config), config, trials=TRIALS, seed=42
            )
            upper = constant_degree_upper_bound(actual_n, d)
            lower = k_dissemination_lower_bound(actual_n, d, synchronous=True)
            means.append(stats.mean)
            print(f"{actual_n:>4} {d:>4} {stats.mean:>14.1f} {upper:>10.1f} "
                  f"{lower:>14.1f} {stats.mean / upper:>6.2f}")
        fit = fit_power_law(SIZES, means)
        print(f"growth exponent vs n: {fit.exponent:.2f} (Θ(k + D) = Θ(n) predicts ≈ 1)")

    print("\nTheorem 3: on constant-maximum-degree graphs uniform algebraic gossip "
          "is order optimal — the measured curves stay between the Ω(k + D) lower "
          "bound and a constant multiple of the k + D upper bound.")


if __name__ == "__main__":
    main()
