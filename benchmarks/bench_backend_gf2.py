"""E11 — the packed GF(2) eliminator: word-packed XOR vs dense GF(2).

The paper's base protocol is algebraic gossip over ``GF(2)`` (Theorem 1 is
stated for ``q >= 2``), and all-to-all dissemination on the complete graph is
its canonical workload.  This benchmark runs exactly that — ``k = n``
messages, synchronous EXCHANGE, ``n = 128`` — through the vectorised batch
engine twice: once with the dense ``BatchEliminator`` forced (by patching
``repro.backends.make_eliminator``, which every decoder looks up per call)
and once on the eliminator the field picks, the bit-packed
``PackedGf2Eliminator`` (rows packed into uint64 words, word-parallel XOR
elimination; see ``repro/backends/gf2bit.py``).

The assertions are the eliminator contract end-to-end:

* both runs are **bit-identical** — same seeds give the same per-trial
  stopping times, message/helpful counts and completion rounds (the same
  contract ``tests/test_backend_conformance.py`` enforces trace-by-trace);
* the packed eliminator is at least **5x faster** at ``n = 128`` in GF(2)
  mode, where elimination and encoding dominate the round loop.

Scale knobs (for smoke runs): ``REPRO_BENCH_GF2_N``,
``REPRO_BENCH_GF2_TRIALS`` and ``REPRO_BENCH_GF2_MIN_SPEEDUP`` shrink the
workload / floor without changing the equivalence checks.
"""

from __future__ import annotations

import os
import time
from unittest import mock

from _utils import PEDANTIC, record_trials, report, report_json, trial_signature
from repro.experiments.parallel import measure_protocol_parallel
from repro.gf.linalg import BatchEliminator
from repro.scenarios import ScenarioSpec, default_scenario_config

N = int(os.environ.get("REPRO_BENCH_GF2_N", "128"))
TRIALS = int(os.environ.get("REPRO_BENCH_GF2_TRIALS", "8"))
SEED = 1109
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_GF2_MIN_SPEEDUP", "5.0"))
SCALED_DOWN = (N, TRIALS, MIN_SPEEDUP) != (128, 8, 5.0)

#: All-to-all algebraic gossip over GF(2): k = n source messages on the
#: complete graph.  Both runs measure this one spec, so they share its
#: fingerprint (and therefore the archived trials) — the store-invariance
#: half of the eliminator contract.  Pinned to the batch engine, whose
#: decoders build their eliminator through ``make_eliminator`` (the event
#: engine, which auto-selection would pick, has its own).
SPEC = ScenarioSpec(
    topology="complete",
    n=N,
    k=N,
    config=default_scenario_config(max_rounds=50_000, field_size=2),
    trials=TRIALS,
    seed=SEED,
    engine="batch",
)


def _measure(force_dense: bool):
    """Time the plan on the dense eliminator (forced) or the packed one."""
    start = time.perf_counter()
    if force_dense:
        # BatchEliminator takes exactly make_eliminator's arguments.
        with mock.patch("repro.backends.make_eliminator", BatchEliminator):
            results = measure_protocol_parallel(SPEC, jobs=1)
    else:
        results = measure_protocol_parallel(SPEC, jobs=1)
    return results, time.perf_counter() - start


def _run():
    timings = {}
    results = {}
    # The row labels keep the names of the committed BENCH_E11 record.
    for backend, force_dense in (("numpy", True), ("gf2bit", False)):
        results[backend], timings[backend] = _measure(force_dense)

    assert trial_signature(results["gf2bit"]) == trial_signature(
        results["numpy"]
    ), "packed GF(2) eliminator diverged from the dense reference"

    record_trials(SPEC, results["gf2bit"])

    base = timings["numpy"]
    rounds = [r.rounds for r in results["numpy"]]
    return [
        {
            "backend": backend,
            "seconds": round(seconds, 2),
            "speedup": round(base / seconds, 2),
            "mean_rounds": round(sum(rounds) / len(rounds), 2),
        }
        for backend, seconds in timings.items()
    ]


def test_gf2_backend_speedup(benchmark):
    rows = benchmark.pedantic(_run, **PEDANTIC)
    report(
        "E11-gf2-backend",
        f"GF(2) eliminators — uniform AG on complete(n={N}), k={N}, "
        f"{TRIALS} trials, synchronous EXCHANGE, batch engine",
        rows,
        notes=[
            "Both eliminators are bit-identical (asserted): same seeds give "
            "the same per-trial stopping times, message counts and completion "
            "rounds, so the result-store cache is eliminator-invariant.",
            f"The packed GF(2) eliminator (gf2bit) must be at least "
            f"{MIN_SPEEDUP:.0f}x faster than the dense reference (numpy) on "
            "this workload.",
        ],
    )
    packed_row = next(row for row in rows if row["backend"] == "gf2bit")
    report_json(
        "E11-gf2-backend",
        timings={row["backend"]: row["seconds"] for row in rows},
        speedup=packed_row["speedup"],
        n=N,
        trials=TRIALS,
        scaled_down=SCALED_DOWN,
        k=N,
        seed=SEED,
        min_speedup=MIN_SPEEDUP,
        protocol="uniform-ag",
        topology="complete",
        field_size=2,
    )
    assert packed_row["speedup"] >= MIN_SPEEDUP
