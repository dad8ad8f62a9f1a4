"""The barbell experiment: where uniform gossip struggles and TAG shines.

The barbell graph (two cliques joined by a single edge) is the paper's
worst-case example for uniform algebraic gossip: the bottleneck edge is chosen
with probability only ~2/n per round, so pushing n messages across it takes
Ω(n²) rounds.  TAG sidesteps the problem: its spanning tree pins the bottleneck
edge as a parent link, so it is exercised on *every* wakeup of its child, and
the whole dissemination finishes in Θ(n) rounds.

Run with::

    python examples/barbell_speedup.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.analysis import fit_power_law, tag_with_brr_upper_bound
from repro.scenarios import ScenarioSpec, default_scenario_config


def main() -> None:
    sizes = [8, 12, 16, 24]
    trials = 2
    config = default_scenario_config(max_rounds=1_000_000)

    def mean_rounds(protocol: str, n: int, seed: int) -> float:
        spec = ScenarioSpec(topology="barbell", n=n, k=n, protocol=protocol,
                            config=config, trials=trials, seed=seed)
        return spec.materialize().run().mean

    print("Running uniform algebraic gossip and TAG + B_RR on barbell graphs "
          f"(k = n, {trials} trials per size)...\n")
    uniform_means = [mean_rounds("uniform", n, seed=1) for n in sizes]
    tag_means = [mean_rounds("tag", n, seed=2) for n in sizes]

    print(f"{'n':>4} {'uniform AG (rounds)':>22} {'TAG+BRR (rounds)':>18} "
          f"{'speed-up':>9} {'Θ(n) bound':>11}")
    for n, uniform, tag in zip(sizes, uniform_means, tag_means):
        print(f"{n:>4} {uniform:>22.1f} {tag:>18.1f} "
              f"{uniform / tag:>9.2f} {tag_with_brr_upper_bound(n, n):>11.1f}")

    uniform_fit = fit_power_law(sizes, uniform_means)
    tag_fit = fit_power_law(sizes, tag_means)
    print(f"\nGrowth exponents: uniform AG ≈ n^{uniform_fit.exponent:.2f} "
          f"(heading to the Ω(n²) regime), TAG + B_RR ≈ n^{tag_fit.exponent:.2f} (Θ(n)).")
    print(f"At n = {sizes[-1]}: uniform AG {uniform_means[-1]:.1f} rounds, "
          f"TAG + B_RR {tag_means[-1]:.1f} rounds "
          f"(speed-up {uniform_means[-1] / tag_means[-1]:.1f}x)")
    print("\nThe paper's claim (Section 5): for k = Ω(n), TAG finishes in Θ(n) rounds "
          "on ANY graph, giving a speed-up ratio of order n on the barbell.")


if __name__ == "__main__":
    main()
