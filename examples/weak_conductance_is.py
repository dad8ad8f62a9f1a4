"""Section 6: TAG with the IS protocol on graphs with large weak conductance.

The barbell has terrible conductance (one bridge edge) but excellent *weak*
conductance: each clique on its own mixes in O(log n) rounds.  The IS protocol
exploits that to build a spanning tree in polylog(n) rounds, and TAG then
disseminates k messages in Θ(k) more rounds.  This example

1. computes the (surrogate) weak conductance of the barbell and a clique chain,
2. measures how long the IS protocol needs to build its spanning tree, and
3. runs TAG + IS for a sweep of k and shows the linear-in-k behaviour of
   Theorems 7/8.

Run with::

    python examples/weak_conductance_is.py
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.analysis import fit_linear, is_protocol_upper_bound
from repro.core import SimulationConfig
from repro.gossip import GossipEngine
from repro.graphs import barbell_graph, clique_chain_graph, graph_conductance, weak_conductance
from repro.protocols import ISSpanningTree
from repro.scenarios import ScenarioSpec, default_scenario_config


def main() -> None:
    n = 24
    graphs = {
        "barbell": barbell_graph(n),
        "clique_chain (c=3)": clique_chain_graph(n, cliques=3),
    }

    print("=== Weak conductance vs ordinary conductance ===")
    for name, graph in graphs.items():
        phi = graph_conductance(graph)
        phi_c = weak_conductance(graph, c=3)
        print(f"{name:>20}: Φ(G) ≈ {phi:.4f}   Φ_3(G) ≈ {phi_c:.4f}   "
              f"(IS bound O(c(log n + log δ⁻¹)/Φ_c + c²) ≈ "
              f"{is_protocol_upper_bound(graph.number_of_nodes(), 3, phi_c):.1f} rounds)")

    print("\n=== IS spanning-tree construction time ===")
    config = SimulationConfig(max_rounds=10_000)
    for name, graph in graphs.items():
        rounds = []
        for seed in range(5):
            rng = np.random.default_rng(seed)
            protocol = ISSpanningTree(graph, rng)
            rounds.append(GossipEngine(graph, protocol, config, rng).run().rounds)
        print(f"{name:>20}: mean {np.mean(rounds):.1f} rounds, max {max(rounds)} "
              f"(4·ln n = {4 * math.log(graph.number_of_nodes()):.1f})")

    print("\n=== TAG + IS on the barbell: stopping time vs k (Theorem 7) ===")
    ks = [6, 12, 18, 24]
    means = []
    for k in ks:
        spec = ScenarioSpec(
            topology="barbell", n=n, k=k, protocol="tag", spanning_tree="is",
            config=default_scenario_config(max_rounds=500_000), trials=3, seed=5,
        )
        stats = spec.materialize().run()
        means.append(stats.mean)
        print(f"  k={k:>3}: mean {round(stats.mean, 2):>7} rounds, "
              f"p95 {round(stats.whp, 2):>7}")
    fit = fit_linear(ks, means)
    print(f"\nLinear fit: rounds ≈ {fit.slope:.2f}·k + {fit.intercept:.1f} "
          f"(Θ(k) with a polylog additive term, as Theorem 7 predicts)")


if __name__ == "__main__":
    main()
