"""E10 — TAG on the event engine vs the scalar engine.

Runs the paper's headline protocol — TAG with the round-robin broadcast tree
``B_RR`` of Theorem 5, ``k`` messages on a complete graph of ``n`` nodes,
synchronous EXCHANGE — through both trial runners:

* sequential: one :class:`~repro.gossip.engine.GossipEngine` per trial with
  the scalar :class:`~repro.protocols.tag.TagProtocol` (per-packet Python
  Gaussian elimination, per-delivery ``O(n)`` tree-completeness scans),
* event: the engine the rule picks for TAG, one
  :class:`~repro.gossip.event.EventGossipEngine` per trial (phase 1 on the
  process's own tree object, phase-2 parent EXCHANGEs on python-int rows,
  tree completion as a counter).

The assertions are the contract of the fast path: the event runner must be
**bit-identical** to the sequential one (same seeds → same per-trial stopping
times, message counts, completion rounds and tree shapes).  The speed
contract is the event side's absolute ``trial_s`` and ``timeslot_us`` in the
record, gated against the previous record (see ``bench_batch_core``); the
speedup is reported, not gated.

Scale knobs (for smoke runs): ``REPRO_BENCH_TAG_N`` and
``REPRO_BENCH_TAG_TRIALS`` shrink the workload without changing the
equivalence checks.
"""

from __future__ import annotations

import os
import time

from _utils import (
    EVENT_REPEATS,
    PEDANTIC,
    event_metrics,
    record_trials,
    report,
    report_json,
    timed_event_runs,
    trial_signature,
)
from repro.analysis.stopping_time import measure_protocol
from repro.experiments.parallel import measure_protocol_parallel
from repro.scenarios import ScenarioSpec, default_scenario_config

N = int(os.environ.get("REPRO_BENCH_TAG_N", "128"))
K = 16
TRIALS = int(os.environ.get("REPRO_BENCH_TAG_TRIALS", "16"))
SEED = 1107
TOPOLOGY = "complete"
SPANNING_TREE = "brr"
SCALED_DOWN = (N, TRIALS) != (128, 16)

#: The whole workload as one declarative scenario (see bench_batch_core).
SPEC = ScenarioSpec(
    topology=TOPOLOGY,
    n=N,
    k=K,
    protocol="tag",
    spanning_tree=SPANNING_TREE,
    config=default_scenario_config(max_rounds=50_000),
    trials=TRIALS,
    seed=SEED,
)


def _run():
    scenario = SPEC.materialize()
    assert scenario.select_engine() == ("event", "auto: TAG")
    timings = {}

    start = time.perf_counter()
    sequential = measure_protocol(
        scenario.graph, scenario.protocol_factory, scenario.config,
        trials=TRIALS, seed=SEED,
    )
    timings["sequential (scalar TagProtocol)"] = time.perf_counter() - start

    event_seconds, event = timed_event_runs(
        lambda: measure_protocol_parallel(scenario, jobs=1)
    )
    timings["event (auto-selected)"] = event_seconds

    assert trial_signature(event) == trial_signature(sequential), (
        "event TAG runner diverged from the sequential runner"
    )

    # The perf benchmark must *time* cold runs (a store read would measure
    # JSON parsing, not the engines), but the computed trials still join the
    # shared archive so other consumers of this workload reuse them.
    record_trials(SPEC, event)

    base = timings["sequential (scalar TagProtocol)"]
    rounds = [r.rounds for r in sequential]
    rows = [
        {
            "runner": runner,
            "seconds": round(seconds, 2),
            "speedup": round(base / seconds, 2),
            "mean_rounds": round(sum(rounds) / len(rounds), 2),
        }
        for runner, seconds in timings.items()
    ]
    return rows, event_metrics(event_seconds, event)


def test_batch_tag_speedup(benchmark):
    rows, metrics = benchmark.pedantic(_run, **PEDANTIC)
    report(
        "E10-batch-tag",
        f"TAG on the event engine — TAG+B_RR on {TOPOLOGY}(n={N}), k={K}, "
        f"{TRIALS} trials, synchronous EXCHANGE",
        rows,
        notes=[
            "Both runners are bit-identical (asserted): same seeds give the "
            "same per-trial stopping times, message counts, completion "
            "rounds and tree metadata.",
            f"Event side, median of {EVENT_REPEATS} back-to-back runs: "
            f"{metrics['trial_s'][0]:.4f} s per trial, "
            f"{metrics['timeslot_us'][0]:.2f} us per timeslot.",
        ],
    )
    report_json(
        "E10-batch-tag",
        timings={row["runner"]: row["seconds"] for row in rows},
        n=N,
        trials=TRIALS,
        scaled_down=SCALED_DOWN,
        k=K,
        seed=SEED,
        metrics=metrics,
        protocol="tag",
        spanning_tree=SPANNING_TREE,
        topology=TOPOLOGY,
    )
