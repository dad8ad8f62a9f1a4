"""E8 — the barbell worst case (Section 1.1): uniform AG vs TAG.

The barbell graph is the paper's canonical example of a topology with a severe
bottleneck: uniform algebraic gossip needs Ω(n²) rounds for all-to-all, while
TAG + B_RR needs only Θ(n), so the speed-up ratio grows like n.  The
reproduced series sweeps ``n`` with ``k = n`` and reports both protocols'
stopping times, their ratio, and the fitted growth exponents.
"""

from __future__ import annotations

from _utils import PEDANTIC, measured_table, report
from repro.analysis import fit_power_law
from repro.scenarios import ScenarioSpec, default_scenario_config

TRIALS = 2
SIZES = [8, 12, 16, 24, 32]


def _means(protocol: str, seed: int) -> list[float]:
    """Mean stopping time per size of one protocol's k = n barbell sweep."""
    config = default_scenario_config(max_rounds=1_000_000)
    units = [
        (f"{protocol} n={n}", ScenarioSpec(topology="barbell", n=n, k=n,
                                           protocol=protocol, config=config))
        for n in SIZES
    ]
    _, outcomes = measured_table(units, trials=TRIALS, seed=seed)
    return [outcome.stats.mean for outcome in outcomes]


def _run():
    uniform_means = _means("uniform", 808)
    tag_means = _means("tag", 809)
    rows = [
        {
            "n": n,
            "uniform_ag_mean": round(uniform, 1),
            "tag_brr_mean": round(tag, 1),
            "speedup": round(uniform / tag, 2),
        }
        for n, uniform, tag in zip(SIZES, uniform_means, tag_means)
    ]
    uniform_fit = fit_power_law(SIZES, uniform_means)
    tag_fit = fit_power_law(SIZES, tag_means)
    return rows, uniform_fit, tag_fit


def test_barbell_speedup(benchmark):
    rows, uniform_fit, tag_fit = benchmark.pedantic(_run, **PEDANTIC)
    report(
        "E8-barbell",
        f"Barbell worst case — uniform AG vs TAG + B_RR, k = n ({TRIALS} trials)",
        rows,
        notes=[
            f"uniform AG growth exponent: {uniform_fit.exponent:.2f} "
            f"(the Ω(n²) regime predicts → 2 as n grows)",
            f"TAG + B_RR growth exponent: {tag_fit.exponent:.2f} (Θ(n) predicts ≈ 1)",
            "speedup = uniform / TAG; the paper predicts it grows like n.",
        ],
    )
    # Qualitative shape: uniform AG grows strictly faster than TAG and the
    # speed-up at the largest size clearly exceeds the speed-up at the smallest.
    assert uniform_fit.exponent > tag_fit.exponent
    assert rows[-1]["speedup"] > rows[0]["speedup"]
    assert rows[-1]["speedup"] > 1.0
