"""E13 — direct-CSR topology builds vs networkx-built graphs at large ``n``.

Every topology family is built straight into the ``(indptr, indices)``
arrays of a :class:`~repro.graphs.CSRGraph`, which is the only graph the
engines run on.  This benchmark measures what that saves against building
the same graph the way the simulator used to: a dict-of-dicts
``nx.Graph`` (hundreds of bytes per edge) from the networkx builders kept as
the test oracle (``tests/nx_topologies.py``), converted with
:meth:`~repro.graphs.CSRGraph.from_networkx`.

It runs the registry's large-``n`` workload — uniform AG over ``GF(2)`` on
connected ``G(n, 2·log n/n)``, asynchronous EXCHANGE, ``k = 8``, packed
GF(2) eliminator, event engine — **once per side in separate subprocesses**
(``ru_maxrss`` is a process-lifetime high-water mark, so a per-side peak
needs a per-side process).  The ``networkx`` side materialises the scenario
with ``build_topology`` swapped for oracle + ``from_networkx``; the ``csr``
side calls :meth:`~repro.scenarios.ScenarioSpec.materialize`.  It asserts:

* both sides are **bit-identical** — the per-trial result signatures
  (stopping times, message/helpful counts, completion rounds, metadata)
  hash identically;
* the direct build materialises at least ``5×`` faster and the run's
  peak RSS is at least ``2×`` smaller (the committed ``BENCH_E13`` record is
  gated on both by ``check_regression.py``).

Scale knobs (for smoke runs): ``REPRO_BENCH_CSR_N``,
``REPRO_BENCH_CSR_TRIALS``, ``REPRO_BENCH_CSR_MIN_SPEEDUP`` and
``REPRO_BENCH_CSR_MIN_RSS_REDUCTION`` shrink the workload / floors without
changing the equivalence check.  (At small ``n`` the RSS ratio tends to 1 —
the interpreter baseline dominates — so smoke lanes lower the RSS floor.)
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from _utils import PEDANTIC, report, report_json

N = int(os.environ.get("REPRO_BENCH_CSR_N", "100000"))
TRIALS = int(os.environ.get("REPRO_BENCH_CSR_TRIALS", "2"))
SEED = 1311
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_CSR_MIN_SPEEDUP", "5.0"))
MIN_RSS_REDUCTION = float(
    os.environ.get("REPRO_BENCH_CSR_MIN_RSS_REDUCTION", "2.0")
)
SCALED_DOWN = (N, TRIALS, MIN_SPEEDUP, MIN_RSS_REDUCTION) != (100000, 2, 5.0, 2.0)

_REPO = Path(__file__).resolve().parent.parent


def _child(side: str, n: int, trials: int, seed: int) -> None:
    """Run one side's materialise + simulate phases; print a JSON record."""
    from _utils import peak_rss_mib, trial_signature
    from repro.graphs import CSRGraph
    from repro.scenarios import get_scenario
    from repro.scenarios import spec as scenario_spec

    if side == "networkx":
        sys.path.insert(0, str(_REPO / "tests"))
        from nx_topologies import ORACLE_BUILDERS

        def build_via_networkx(name, size, **kwargs):
            return CSRGraph.from_networkx(ORACLE_BUILDERS[name](size, **kwargs))

        scenario_spec.build_topology = build_via_networkx
    spec = get_scenario("event/er-logn").replace(n=n, trials=trials, seed=seed)
    start = time.perf_counter()
    scenario = spec.materialize()
    materialize_seconds = time.perf_counter() - start
    start = time.perf_counter()
    results = scenario.measure()
    simulate_seconds = time.perf_counter() - start
    signature = hashlib.sha256(
        repr(trial_signature(results)).encode("utf-8")
    ).hexdigest()
    print(
        json.dumps(
            {
                "side": side,
                "n": scenario.n,
                "materialize_seconds": materialize_seconds,
                "simulate_seconds": simulate_seconds,
                "peak_rss_mib": peak_rss_mib(),
                "signature": signature,
                "mean_rounds": sum(r.rounds for r in results) / len(results),
            }
        )
    )


def _run_side(side: str) -> dict:
    env = dict(os.environ)
    src = str(_REPO / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    proc = subprocess.run(
        [
            sys.executable,
            str(Path(__file__).resolve()),
            "--child",
            side,
            str(N),
            str(TRIALS),
            str(SEED),
        ],
        capture_output=True,
        text=True,
        cwd=_REPO,
        env=env,
    )
    if proc.returncode != 0:
        raise AssertionError(
            f"{side} side child failed "
            f"(exit {proc.returncode}):\n{proc.stderr[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _run():
    measured = {side: _run_side(side) for side in ("networkx", "csr")}
    nx_rec, csr_rec = measured["networkx"], measured["csr"]
    assert nx_rec["signature"] == csr_rec["signature"], (
        "the direct CSR build diverged from the networkx-built graph at "
        f"n={N}: per-trial result signatures differ"
    )
    speedup = nx_rec["materialize_seconds"] / csr_rec["materialize_seconds"]
    rss_reduction = nx_rec["peak_rss_mib"] / csr_rec["peak_rss_mib"]
    rows = [
        {
            "graph built by": record["side"],
            "materialize s": round(record["materialize_seconds"], 3),
            "simulate s": round(record["simulate_seconds"], 3),
            "peak RSS MiB": round(record["peak_rss_mib"], 1),
            "mean_rounds": round(record["mean_rounds"], 1),
        }
        for record in (nx_rec, csr_rec)
    ]
    return rows, measured, speedup, rss_reduction


def test_csr_pipeline_crossover(benchmark):
    rows, measured, speedup, rss_reduction = benchmark.pedantic(_run, **PEDANTIC)
    nx_rec, csr_rec = measured["networkx"], measured["csr"]
    report(
        "E13-csr-pipeline",
        f"Direct-CSR build vs networkx-built graph (oracle + from_networkx) — "
        f"uniform AG over GF(2) on G(n, 2·log n/n), n={N}, k=8, asynchronous "
        f"EXCHANGE, packed eliminator, event engine, {TRIALS} trials (one "
        f"subprocess per side)",
        rows,
        notes=[
            "Both sides are bit-identical (asserted): the per-trial result "
            "signatures hash identically.",
            f"The direct build must materialise ≥{MIN_SPEEDUP:.1f}x faster "
            f"(measured {speedup:.1f}x) and peak at ≤1/{MIN_RSS_REDUCTION:.1f} "
            f"of the RSS (measured 1/{rss_reduction:.1f}).",
        ],
        scaled_down=SCALED_DOWN,
    )
    report_json(
        "E13-csr-pipeline",
        timings={
            "networkx": nx_rec["materialize_seconds"] + nx_rec["simulate_seconds"],
            "csr": csr_rec["materialize_seconds"] + csr_rec["simulate_seconds"],
        },
        speedup=speedup,
        n=N,
        trials=TRIALS,
        scaled_down=SCALED_DOWN,
        materialize_seconds={
            "networkx": nx_rec["materialize_seconds"],
            "csr": csr_rec["materialize_seconds"],
        },
        simulate_seconds={
            "networkx": nx_rec["simulate_seconds"],
            "csr": csr_rec["simulate_seconds"],
        },
        peak_rss_mib_per_pipeline={
            "networkx": round(nx_rec["peak_rss_mib"], 1),
            "csr": round(csr_rec["peak_rss_mib"], 1),
        },
        rss_reduction=round(rss_reduction, 3),
        floors={"rss_reduction": MIN_RSS_REDUCTION},
        k=8,
        seed=SEED,
        min_speedup=MIN_SPEEDUP,
        protocol="uniform-ag",
        topology="erdos_renyi_logn",
        field_size=2,
        engine="event",
    )
    assert speedup >= MIN_SPEEDUP, (
        f"CSR materialize speedup {speedup:.2f}x at n={N} is below the "
        f"{MIN_SPEEDUP:.1f}x floor"
    )
    assert rss_reduction >= MIN_RSS_REDUCTION, (
        f"CSR peak-RSS reduction {rss_reduction:.2f}x at n={N} is below the "
        f"{MIN_RSS_REDUCTION:.1f}x floor"
    )


if __name__ == "__main__":
    if len(sys.argv) == 6 and sys.argv[1] == "--child":
        _child(sys.argv[2], int(sys.argv[3]), int(sys.argv[4]), int(sys.argv[5]))
    else:  # pragma: no cover - convenience entry point
        sys.exit("usage: bench_csr_pipeline.py --child {networkx|csr} N TRIALS SEED")
