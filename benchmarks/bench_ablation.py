"""Ablations of the model's design choices.

Not a table in the paper, but each ablation isolates one modelling decision:

* **action** — EXCHANGE (analysed in the paper) vs PUSH vs PULL for uniform AG;
* **field size q** — the helpfulness probability is ≥ 1 − 1/q, so the stopping
  time should be essentially flat in q beyond q = 2;
* **spanning-tree protocol inside TAG** — BFS oracle vs uniform broadcast vs
  round-robin broadcast vs IS on the barbell;
* **phase interleaving in TAG** — faithful odd/even interleaving vs switching
  every wakeup to phase 2 once the tree is complete (a constant-factor change).

Every ablation sweeps one axis of a :class:`~repro.scenarios.ScenarioSpec`
and runs through the scenario layer — no hand-rolled factories.
"""

from __future__ import annotations

from _utils import PEDANTIC, cached_run, report
from repro.core import GossipAction
from repro.scenarios import ScenarioSpec, default_scenario_config

TRIALS = 3
N = 16

_RING_CONFIG = default_scenario_config(max_rounds=500_000)


def _action_ablation():
    rows = []
    for action in (GossipAction.EXCHANGE, GossipAction.PUSH, GossipAction.PULL):
        spec = ScenarioSpec(
            topology="ring", n=N, config=_RING_CONFIG.replace(action=action),
            trials=TRIALS, seed=909,
        )
        stats = cached_run(spec)
        rows.append({"action": action.value, "mean_rounds": round(stats.mean, 1),
                     "p95_rounds": round(stats.whp, 1)})
    return rows


def _field_size_ablation():
    rows = []
    for q in (2, 4, 16, 256):
        spec = ScenarioSpec(
            topology="ring", n=N, config=_RING_CONFIG.replace(field_size=q),
            trials=TRIALS, seed=910,
        )
        stats = cached_run(spec)
        rows.append({"q": q, "mean_rounds": round(stats.mean, 1),
                     "p95_rounds": round(stats.whp, 1)})
    return rows


def _tree_protocol_ablation():
    rows = []
    for stp in ("bfs_oracle", "uniform_broadcast", "brr", "is"):
        spec = ScenarioSpec(
            topology="barbell", n=N, k=N, protocol="tag", spanning_tree=stp,
            config=default_scenario_config(max_rounds=500_000),
            trials=TRIALS, seed=911,
        )
        stats = cached_run(spec)
        rows.append({"spanning_tree": stp, "mean_rounds": round(stats.mean, 1),
                     "p95_rounds": round(stats.whp, 1)})
    return rows


def _interleaving_ablation():
    rows = []
    for keep_phase1, label in ((True, "faithful odd/even interleave"),
                               (False, "phase 2 only after tree completes")):
        spec = ScenarioSpec(
            topology="barbell", n=N, protocol="tag", spanning_tree="brr",
            keep_phase1_after_tree=keep_phase1,
            config=default_scenario_config(max_rounds=500_000),
            trials=TRIALS, seed=912,
        )
        stats = cached_run(spec)
        rows.append({"variant": label, "mean_rounds": round(stats.mean, 1)})
    return rows


def test_ablation_action(benchmark):
    rows = benchmark.pedantic(_action_ablation, **PEDANTIC)
    report("ablation-action", f"Ablation — gossip action, uniform AG on ring({N}), k=n", rows)
    means = {row["action"]: row["mean_rounds"] for row in rows}
    assert means["exchange"] <= means["push"]
    assert means["exchange"] <= means["pull"]


def test_ablation_field_size(benchmark):
    rows = benchmark.pedantic(_field_size_ablation, **PEDANTIC)
    report("ablation-field-size", f"Ablation — RLNC field size q, uniform AG on ring({N})", rows,
           notes=["The theory predicts only a (1 - 1/q) effect: q=2 may be slightly "
                  "slower, larger q essentially flat."])
    means = [row["mean_rounds"] for row in rows]
    assert max(means) <= 2.0 * min(means)


def test_ablation_tree_protocol(benchmark):
    rows = benchmark.pedantic(_tree_protocol_ablation, **PEDANTIC)
    report("ablation-tree-protocol", f"Ablation — spanning-tree protocol inside TAG, barbell({N})", rows)
    assert all(row["mean_rounds"] > 0 for row in rows)


def test_ablation_phase_interleaving(benchmark):
    rows = benchmark.pedantic(_interleaving_ablation, **PEDANTIC)
    report("ablation-interleaving", f"Ablation — TAG phase interleaving, barbell({N}), k=n", rows,
           notes=["Dropping phase-1 steps after the tree completes can only help, "
                  "and only by a constant factor."])
    faithful, eager = rows[0]["mean_rounds"], rows[1]["mean_rounds"]
    assert eager <= faithful * 1.2
