"""E4 — Table 1, row "TAG, k = Ω(n), any graph" (Section 5): Θ(n) total time.

Sweeps ``n`` with ``k = n`` on the barbell (the worst case for uniform gossip)
and on the grid, running TAG with the round-robin broadcast ``B_RR``.  The
paper's claim is that the stopping time is ``Θ(n)`` on *any* graph; the
reproduced series is the measured mean/p95 versus ``n`` together with the
fitted growth exponent (should be ≈ 1; fitted against the materialised node
counts each row prints) and the ratio against the explicit ``k + ln n + 3n``
expression.
"""

from __future__ import annotations

import pytest

from _utils import PEDANTIC, measured_table, report
from repro.analysis import fit_power_law
from repro.scenarios import ScenarioSpec, default_scenario_config

TRIALS = 3
SIZES = [8, 16, 24, 32]


@pytest.mark.parametrize("topology", ["barbell", "grid"])
def test_table1_tag_brr_is_linear(benchmark, topology):
    def _run():
        config = default_scenario_config(max_rounds=500_000)
        units = [
            (f"n={n}", ScenarioSpec(topology=topology, n=n, k=n, protocol="tag",
                                    spanning_tree="brr", config=config))
            for n in SIZES
        ]
        rows, outcomes = measured_table(
            units, trials=TRIALS, seed=404, bounds=("tag_brr", "lower")
        )
        # The grid rounds each requested size to a square (8 -> 4, 24 -> 16,
        # 32 -> 25): fit against the node counts that actually ran.
        fit = fit_power_law(
            [outcome.n for outcome in outcomes],
            [outcome.stats.mean for outcome in outcomes],
        )
        return rows, fit

    rows, fit = benchmark.pedantic(_run, **PEDANTIC)
    report(
        f"E4-tag-omega-n-{topology}",
        f"Table 1 / Section 5 — TAG + B_RR, k = n, {topology} (Θ(n) claim)",
        rows,
        notes=[
            f"fitted growth exponent of mean rounds vs n: {fit.exponent:.2f} "
            f"(Θ(n) predicts ≈ 1; R²={fit.r_squared:.3f})",
            "tag_brr = k + ln n + 3n (explicit-constant upper bound).",
        ],
    )
    assert all(row["ratio(tag_brr)"] <= 1.5 for row in rows)
    assert 0.5 <= fit.exponent <= 1.5
