"""E14 — the asymptotic stopping-time campaign through streaming summaries.

The ``asymptotics`` campaign walks ``n`` over decades on two families —
connected ``G(n, 2·log n/n)`` expanders (Theorem 2's ``O(n)`` regime) and
rings of log-sized cliques, the latter one decade lower to equalise
per-decade event cost — through the event-driven CSR pipeline, then fits
``T(n) = c·n^a`` by least squares on the log-log means with bootstrap
confidence intervals.  This benchmark runs the campaign at its committed
decade scale, cold, into a throwaway store (so ``timings_seconds.campaign``
times the engine, never a warm cache), and asserts the two properties the
campaign's design rests on:

* **summary records pay for themselves** — at the largest decade, archiving
  the stopping-time projection (:func:`repro.store.summarize_result`)
  instead of the full :class:`~repro.core.results.RunResult` (per-node
  completion rounds included) shrinks the serialized trial record by the
  recorded ``bytes_ratio`` (full / summary bytes), floor-gated at
  ``min_bytes_ratio`` by ``check_regression.py``;
  and the summary-backed aggregate is **bit-identical** to aggregating
  the re-simulated full results;
* **the fit is tight** — the ring-of-cliques family's log-log fit reaches
  the ``fit_r_squared`` floor (its stopping time grows cleanly across
  decades; the expander family's near-flat curve is reported, not gated).

Scale knobs (for smoke runs): ``REPRO_BENCH_ASY_MIN_N``,
``REPRO_BENCH_ASY_MAX_N``, ``REPRO_BENCH_ASY_TRIALS``,
``REPRO_BENCH_ASY_MIN_BYTES_RATIO`` and ``REPRO_BENCH_ASY_MIN_R2`` shrink
the decades / floors without changing the bit-identity check.  The record
bytes ratio scales with ``n`` (full records carry ``n`` completion-round
entries), so smoke lanes at small ``n`` must lower the bytes floor.
"""

from __future__ import annotations

import json
import os
import tempfile
import time

from _utils import PEDANTIC, peak_rss_mib, report, report_json

from repro.campaigns import asymptotics_campaign, run_campaign
from repro.core import aggregate_results
from repro.store import ResultStore, summarize_result

MIN_N = int(os.environ.get("REPRO_BENCH_ASY_MIN_N", "1000"))
MAX_N = int(os.environ.get("REPRO_BENCH_ASY_MAX_N", "10000"))
TRIALS = int(os.environ.get("REPRO_BENCH_ASY_TRIALS", "5"))
MIN_BYTES_RATIO = float(os.environ.get("REPRO_BENCH_ASY_MIN_BYTES_RATIO", "50.0"))
MIN_R2 = float(os.environ.get("REPRO_BENCH_ASY_MIN_R2", "0.9"))
SCALED_DOWN = (MIN_N, MAX_N, TRIALS, MIN_BYTES_RATIO, MIN_R2) != (
    1000,
    10000,
    5,
    50.0,
    0.9,
)


def _record_bytes(payload) -> int:
    """Serialized size of one trial record, store-shard style (compact JSON)."""
    return len(json.dumps(payload, separators=(",", ":"), sort_keys=True))


def _run():
    campaign = asymptotics_campaign(min_n=MIN_N, max_n=MAX_N, trials=TRIALS)
    with tempfile.TemporaryDirectory(prefix="bench-asymptotics-") as root:
        store = ResultStore(root)
        start = time.perf_counter()
        result = run_campaign(campaign, store=store)
        campaign_seconds = time.perf_counter() - start

        # The largest expander decade carries the record-size claim: its full
        # RunResult holds n completion-round entries, its summary five keys.
        largest = max(
            (o for o in result.outcomes if o.unit.group == "er-logn"),
            key=lambda outcome: outcome.spec.n,
        )
        start = time.perf_counter()
        scenario = largest.spec.materialize()
        full_results = scenario.measure()
        resimulate_seconds = time.perf_counter() - start
        assert store.aggregate(largest.spec) == aggregate_results(full_results), (
            "the summary-backed aggregate diverged from re-simulated full "
            f"records at n={largest.spec.n}"
        )
        full_bytes = sum(_record_bytes(r.to_dict()) for r in full_results)
        summary_bytes = sum(_record_bytes(summarize_result(r)) for r in full_results)
        bytes_ratio = full_bytes / summary_bytes

    fit_artifact = next(
        a for a in result.artifacts if a.artifact.kind == "asymptotic-fit"
    )
    fits = {row["family"]: dict(row) for row in fit_artifact.rows}
    ring = fits["ring-of-cliques"]
    assert ring["note"] == "", (
        f"ring-of-cliques exponent fit degenerated: {ring['note']}"
    )
    return (
        list(fit_artifact.rows),
        fits,
        bytes_ratio,
        (full_bytes, summary_bytes),
        {"campaign": campaign_seconds, "resimulate_full": resimulate_seconds},
    )


def test_asymptotics_campaign(benchmark):
    rows, fits, bytes_ratio, (full_bytes, summary_bytes), timings = (
        benchmark.pedantic(_run, **PEDANTIC)
    )
    ring_r2 = float(fits["ring-of-cliques"]["r_squared"])
    report(
        "E14-asymptotics",
        f"Asymptotic stopping-time exponents — uniform AG over GF(2), event "
        f"engine + CSR pipeline, expander decades n={MIN_N}..{MAX_N} (ring "
        f"family one decade lower), {TRIALS} trials per decade, streaming "
        f"summary records",
        rows,
        notes=[
            f"At n={MAX_N} a full trial record serializes to "
            f"{full_bytes // TRIALS} B vs {summary_bytes // TRIALS} B for its "
            f"stopping-time summary — {bytes_ratio:.0f}x smaller on disk "
            f"(floor {MIN_BYTES_RATIO:.0f}x), bit-identical aggregates "
            "(asserted).",
            f"The ring-of-cliques log-log fit must reach r² ≥ {MIN_R2:.2f} "
            f"(measured {ring_r2:.4f}); the near-flat expander fit is "
            "reported unfloored.",
        ],
        scaled_down=SCALED_DOWN,
    )
    report_json(
        "E14-asymptotics",
        timings=timings,
        bytes_ratio=round(bytes_ratio, 3),
        n=MAX_N,
        trials=TRIALS,
        scaled_down=SCALED_DOWN,
        min_bytes_ratio=MIN_BYTES_RATIO,
        floors={"fit_r_squared": MIN_R2},
        fit_r_squared=ring_r2,
        exponents={
            family: row["exponent"] for family, row in sorted(fits.items())
        },
        record_bytes={"full": full_bytes, "summary": summary_bytes},
        min_n=MIN_N,
        k=8,
        protocol="uniform-ag",
        families=sorted(fits),
        field_size=2,
        engine="event",
        peak_rss_mib_run=peak_rss_mib(),
    )
    assert bytes_ratio >= MIN_BYTES_RATIO, (
        f"summary records are only {bytes_ratio:.1f}x smaller than full "
        f"records at n={MAX_N}, below the {MIN_BYTES_RATIO:.0f}x floor"
    )
    assert ring_r2 >= MIN_R2, (
        f"ring-of-cliques fit r²={ring_r2:.4f} at n={MIN_N}..{MAX_N} is "
        f"below the {MIN_R2:.2f} floor"
    )
