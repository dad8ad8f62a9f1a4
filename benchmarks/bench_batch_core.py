"""E9 — the Monte Carlo core: uniform AG on the event engine vs scalar decoders.

Runs the same Table-1-style workload — uniform algebraic gossip, EXCHANGE,
synchronous rounds, ``k`` messages spread over a complete graph on ``n``
nodes — through the three trial runners:

* sequential: one :class:`~repro.gossip.engine.GossipEngine` per trial with
  per-node scalar :class:`~repro.rlnc.decoder.RlncDecoder` elimination,
* event: the engine the rule picks for uniform AG, one
  :class:`~repro.gossip.event.EventGossipEngine` per trial on python-int
  rows,
* parallel: the event runner sharded over worker processes.

The reproduced table reports wall-clock seconds and the speedup over the
sequential path.  The assertions are the contract of the fast path: the
event and parallel runners must be **bit-identical** to the sequential one
(same seeds → same stopping times, message counts and completion rounds).

The speed contract is absolute: the record carries the event side's
``trial_s`` and ``timeslot_us`` (the median of three back-to-back event
runs), which ``check_regression.py`` gates against the previous record's
values.  The speedup is not gated: a ratio cannot see a slowdown that hits
both sides, and it falls whenever the scalar reference gets faster.

Scale knobs (for smoke runs): ``REPRO_BENCH_BATCH_N`` and
``REPRO_BENCH_BATCH_TRIALS`` shrink the workload without changing the
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
from repro.experiments import default_jobs, measure_protocol
from repro.scenarios import ScenarioSpec, default_scenario_config

N = int(os.environ.get("REPRO_BENCH_BATCH_N", "128"))
K = 16
TRIALS = int(os.environ.get("REPRO_BENCH_BATCH_TRIALS", "64"))
SEED = 909
SCALED_DOWN = (N, TRIALS) != (128, 64)

#: The whole workload as one declarative scenario: the spec's trial/seed plan
#: is what both runners execute, so "same spec → same numbers" is literal.
#: The engine is left to the rule, which picks the event engine.
SPEC = ScenarioSpec(
    topology="complete",
    n=N,
    k=K,
    config=default_scenario_config(max_rounds=50_000),
    trials=TRIALS,
    seed=SEED,
)


def _run():
    scenario = SPEC.materialize()
    assert scenario.select_engine() == ("event", "auto: uniform AG")
    timings = {}

    start = time.perf_counter()
    sequential = measure_protocol(
        scenario.graph, scenario.protocol_factory, scenario.config,
        trials=TRIALS, seed=SEED, engine="scalar",
    )
    timings["sequential (scalar decoders)"] = time.perf_counter() - start

    event_seconds, event = timed_event_runs(scenario.measure)
    timings["event (auto-selected)"] = event_seconds

    jobs = min(default_jobs(), 8)
    start = time.perf_counter()
    parallel = scenario.measure(jobs=jobs)
    timings[f"parallel (event, jobs={jobs})"] = time.perf_counter() - start

    assert trial_signature(event) == trial_signature(sequential), (
        "event runner diverged from the sequential runner"
    )
    assert trial_signature(parallel) == trial_signature(sequential), (
        "parallel runner diverged from the sequential runner"
    )

    # The perf benchmark must *time* cold runs (a store read would measure
    # JSON parsing, not the engines), but the computed trials still join the
    # shared archive so other consumers of this workload reuse them.
    record_trials(SPEC, event)

    base = timings["sequential (scalar decoders)"]
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


def test_batch_core_speedup(benchmark):
    rows, metrics = benchmark.pedantic(_run, **PEDANTIC)
    report(
        "E9-batch-core",
        f"Monte Carlo core — uniform AG on complete(n={N}), k={K}, "
        f"{TRIALS} trials, synchronous EXCHANGE",
        rows,
        notes=[
            "All three runners are bit-identical (asserted): same seeds give "
            "the same per-trial stopping times, message counts and "
            "completion rounds.",
            f"Event side, median of {EVENT_REPEATS} back-to-back runs: "
            f"{metrics['trial_s'][0]:.4f} s per trial, "
            f"{metrics['timeslot_us'][0]:.2f} us per timeslot.",
        ],
        scaled_down=SCALED_DOWN,
    )
    report_json(
        "E9-batch-core",
        timings={row["runner"]: row["seconds"] for row in rows},
        n=N,
        trials=TRIALS,
        scaled_down=SCALED_DOWN,
        k=K,
        seed=SEED,
        metrics=metrics,
        protocol="uniform-ag",
        topology="complete",
    )
