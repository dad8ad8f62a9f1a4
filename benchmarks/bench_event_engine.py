"""E12 — the event-driven engine vs the lockstep batch engine at large ``n``.

The asymptotic claims of the paper (``Θ(n log n)`` stopping time for uniform
algebraic gossip, Theorem 1) only become visible at node counts far beyond
what the dense engines can sweep: the lockstep
:class:`~repro.gossip.batch.BatchEngineCore` pays ``O(n)`` vectorised work
per timeslot *per trial slab*, while the event-driven
:class:`~repro.gossip.event.EventGossipEngine` pays O(1) bookkeeping plus two
O(k) packed encode/eliminate steps per event and never materialises anything
``n × n``.

This benchmark runs the registry's large-``n`` workload — uniform AG over
``GF(2)`` on connected ``G(n, 2·log n/n)``, asynchronous EXCHANGE, ``k = 8``,
packed GF(2) eliminator — through both engines at ``n ∈ {256, 1024, 4096}`` and
asserts:

* both engines are **bit-identical** — same seeds give the same per-trial
  stopping times, message/helpful counts and completion rounds (the same
  contract ``tests/test_event_engine.py`` enforces axis-by-axis);
* at the largest size the event engine beats the batch engine's per-trial
  wall-clock by at least the recorded floor (the crossover the engine exists
  for).

Scale knobs (for smoke runs): ``REPRO_BENCH_EVENT_MAX_N``,
``REPRO_BENCH_EVENT_TRIALS`` and ``REPRO_BENCH_EVENT_MIN_SPEEDUP`` shrink the
workload / floor without changing the equivalence checks.
"""

from __future__ import annotations

import os
import time

from _utils import PEDANTIC, record_trials, report, report_json, trial_signature
from repro.scenarios import get_scenario

MAX_N = int(os.environ.get("REPRO_BENCH_EVENT_MAX_N", "4096"))
TRIALS = int(os.environ.get("REPRO_BENCH_EVENT_TRIALS", "4"))
SEED = 1208
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_EVENT_MIN_SPEEDUP", "1.5"))
SCALED_DOWN = (MAX_N, TRIALS, MIN_SPEEDUP) != (4096, 4, 1.5)

#: Node counts swept; the floor is asserted at the largest one.
SIZES = tuple(n for n in (256, 1024) if n < MAX_N) + (MAX_N,)

#: The registered large-n scenario is the single source of truth for the
#: workload (topology, k, field); the bench only varies n, the
#: engine and the trial plan.
BASE = get_scenario("event/er-logn").replace(trials=TRIALS, seed=SEED)


def _run():
    rows = []
    speedups = {}
    timings = {}
    for n in SIZES:
        spec = BASE.replace(n=n)
        per_trial = {}
        results = {}
        for engine in ("batch", "event"):
            materialized = spec.replace(engine=engine).materialize()
            start = time.perf_counter()
            results[engine] = list(materialized.measure())
            per_trial[engine] = (time.perf_counter() - start) / TRIALS
        assert trial_signature(results["event"]) == trial_signature(
            results["batch"]
        ), f"event engine diverged from the batch engine at n={n}"
        record_trials(spec, results["event"])
        speedups[n] = per_trial["batch"] / per_trial["event"]
        timings[f"batch-n{n}"] = per_trial["batch"] * TRIALS
        timings[f"event-n{n}"] = per_trial["event"] * TRIALS
        mean_rounds = sum(r.rounds for r in results["event"]) / TRIALS
        rows.append(
            {
                "n": n,
                "batch s/trial": round(per_trial["batch"], 3),
                "event s/trial": round(per_trial["event"], 3),
                "speedup": round(speedups[n], 2),
                "mean_rounds": round(mean_rounds, 1),
            }
        )
    return rows, speedups, timings


def test_event_engine_crossover(benchmark):
    rows, speedups, timings = benchmark.pedantic(_run, **PEDANTIC)
    report(
        "E12-event-engine",
        f"Event-driven vs lockstep batch engine — uniform AG over GF(2) on "
        f"G(n, 2·log n/n), k=8, asynchronous EXCHANGE, packed eliminator, "
        f"{TRIALS} trials",
        rows,
        notes=[
            "Both engines are bit-identical (asserted): same seeds give the "
            "same per-trial stopping times, message counts and completion "
            "rounds, so either engine serves the same result-store records.",
            f"The event engine must beat the batch engine's per-trial "
            f"wall-clock by at least {MIN_SPEEDUP:.1f}x at n={MAX_N}.",
        ],
    )
    report_json(
        "E12-event-engine",
        timings=timings,
        speedup=speedups[MAX_N],
        n=MAX_N,
        trials=TRIALS,
        scaled_down=SCALED_DOWN,
        k=8,
        seed=SEED,
        min_speedup=MIN_SPEEDUP,
        speedups={str(n): round(s, 3) for n, s in speedups.items()},
        protocol="uniform-ag",
        topology="erdos_renyi_logn",
        field_size=2,
        engine="event-vs-batch",
    )
    assert speedups[MAX_N] >= MIN_SPEEDUP, (
        f"event engine speedup {speedups[MAX_N]:.2f}x at n={MAX_N} "
        f"is below the {MIN_SPEEDUP:.1f}x floor"
    )
