"""Shared helpers for the benchmark harness.

Every benchmark module reproduces one table or figure of the paper, or
measures one engine (its module docstring names which).  Besides the
pytest-benchmark timing, each benchmark prints the reproduced table to stdout
**and** writes it to ``benchmarks/output/<experiment>.txt``, so the docs can
quote numbers from a file that any reader can regenerate with
``pytest benchmarks/ --benchmark-only``.  Scaled-down (smoke) runs only
print, so they never overwrite a committed full-size table.

Simulated trials additionally flow through the shared persistent result store
(:func:`bench_store` / :func:`measured_table` / :func:`cached_run`):
re-running any table benchmark reuses every previously archived trial
bit-identically and only simulates what the archive does not yet hold.
"""

from __future__ import annotations

import contextlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Mapping, Sequence

# Make the package importable when it is not pip-installed.
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:  # pragma: no cover - import side effect
    sys.path.insert(0, str(_SRC))

from repro.analysis.tables import format_table  # noqa: E402
from repro.store import ResultStore  # noqa: E402

OUTPUT_DIR = Path(__file__).resolve().parent / "output"

#: Benchmarks run each scenario exactly once: the quantity of interest is the
#: *simulated stopping time* (rounds), not the wall-clock of the simulator, so
#: repeated timing iterations would only burn time.
PEDANTIC = dict(rounds=1, iterations=1, warmup_rounds=0)

#: Worker processes for sweep trials (``REPRO_BENCH_JOBS=4 pytest ...``).
#: ``None`` runs trials in-process, on the engine the rule picks (the event
#: engine for uniform AG, TAG and standalone spanning trees, the scalar one
#: for user factories); the results are bit-identical for any value.
#: Empty, non-numeric or non-positive values mean "in-process" rather than
#: breaking benchmark collection at import time.
try:
    _jobs = int(os.environ.get("REPRO_BENCH_JOBS", "0"))
except ValueError:
    _jobs = 0
BENCH_JOBS = _jobs if _jobs > 0 else None

#: The benchmarks' shared persistent result store (``benchmarks/output/store``,
#: gitignored).  Every table benchmark reads its trials *through* the store:
#: the first run simulates and archives them, re-runs (and sibling benchmarks
#: sharing a workload) reuse the cached records bit-identically, so extending
#: a table with one new topology only simulates the new rows.  Set
#: ``REPRO_BENCH_STORE`` to relocate the archive, or to ``0``/``off``/``none``
#: to disable caching entirely.  The perf benchmarks (``bench_batch_core``,
#: ``bench_batch_tag``, ``bench_field_ops``) never *read* through the store —
#: their measured quantity is the cold wall-clock — but archive their computed
#: trials afterwards via :func:`record_trials`.
_STORE_SETTING = os.environ.get("REPRO_BENCH_STORE", str(OUTPUT_DIR / "store"))
_BENCH_STORE: "ResultStore | None" = None


def bench_store() -> "ResultStore | None":
    """The shared benchmark result store, or ``None`` when disabled."""
    global _BENCH_STORE
    if _STORE_SETTING.strip().lower() in ("", "0", "off", "none"):
        return None
    if _BENCH_STORE is None:
        _BENCH_STORE = ResultStore(_STORE_SETTING)
    return _BENCH_STORE


@contextlib.contextmanager
def _campaign_store():
    """The benchmark store, or a throwaway one when caching is disabled."""
    store = bench_store()
    if store is not None:
        yield store
        return
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as root:
        yield ResultStore(root)


def measured_table(units, *, trials, seed, bounds=()):
    """Run labelled specs as one inline campaign through the benchmark store.

    ``units`` is a sequence of ``(label, ScenarioSpec)`` pairs; unit ``i``
    runs ``trials`` trials from root seed ``seed + i * 10_007``, the seeds
    the tables have always used, so archived records keep matching.  Returns
    the campaign's ``measured-table`` rows — one ``<bound>`` and
    ``ratio(<bound>)`` column pair per name in ``bounds``, and without the
    ``scenario`` column, which is ``(inline)`` on every row — together with
    the unit outcomes, whose unrounded statistics feed the growth fits.
    """
    from repro.campaigns import ArtifactSpec, CampaignSpec, CampaignUnit, run_campaign

    campaign = CampaignSpec(
        name="benchmark-table",
        units=tuple(
            CampaignUnit(
                name=label, spec=spec, trials=trials, seed=seed + index * 10_007
            )
            for index, (label, spec) in enumerate(units)
        ),
        artifacts=(
            ArtifactSpec(kind="measured-table", params={"bounds": list(bounds)}),
        ),
    )
    with _campaign_store() as store:
        result = run_campaign(campaign, store=store, jobs=BENCH_JOBS)
    rows = [
        {key: value for key, value in row.items() if key != "scenario"}
        for row in result.artifacts[0].rows
    ]
    return rows, result.outcomes


def cached_measure(workload, *, trials=None, seed=None):
    """Per-trial results of a scenario (spec or materialised), read through
    the benchmark store."""
    from repro.scenarios import ScenarioSpec

    if isinstance(workload, ScenarioSpec):
        workload = workload.materialize()
    return workload.measure(trials=trials, seed=seed, store=bench_store())


def cached_run(workload, *, trials=None, seed=None):
    """Aggregated stats of a scenario's plan, read through the benchmark store."""
    from repro.core import aggregate_results

    return aggregate_results(cached_measure(workload, trials=trials, seed=seed))


def campaign_unit_specs(name, *, group=None, units=None):
    """Resolved scenario specs of a campaign's units, in execution order.

    The table benchmarks that reproduce a campaign's evidence pull their
    workloads from the campaign registry instead of re-declaring them, so a
    benchmark run, a ``python -m repro campaign run`` and a CLI scenario run
    of the same unit are the same seeded trials — and share store records.
    ``group`` filters by unit group; ``units`` selects explicit unit names.
    """
    from repro.campaigns import get_campaign

    campaign = get_campaign(name)
    selected = campaign.execution_order()
    if group is not None:
        selected = [unit for unit in selected if unit.group == group]
    if units is not None:
        wanted = set(units)
        selected = [unit for unit in selected if unit.name in wanted]
    return [unit.resolve() for unit in selected]


def record_trials(spec, results, *, seed=None) -> int:
    """Archive already-computed trial results (index order) in the store.

    Used by the perf benchmarks, which must *time* cold uncached runs but can
    still contribute their per-trial results to the shared archive afterwards.
    Returns the number of newly stored records (0 when the store is disabled).
    """
    store = bench_store()
    if store is None:
        return 0
    return store.put_many(spec, dict(enumerate(results)), seed=seed)


def report(experiment_id: str, title: str, rows: Sequence[Mapping[str, Any]],
           notes: Sequence[str] = (), *, scaled_down: bool = False) -> str:
    """Print the reproduced table and persist it under ``benchmarks/output``.

    ``scaled_down=True`` (a smoke run, as for :func:`report_json`) only
    prints: the committed tables hold full-size numbers.
    """
    text = format_table(list(rows), title=title)
    if notes:
        text += "\n" + "\n".join(f"* {note}" for note in notes)
    print("\n" + text + "\n")
    if scaled_down:
        print(f"[{experiment_id}] scaled-down run; table not written")
        return text
    OUTPUT_DIR.mkdir(exist_ok=True)
    path = OUTPUT_DIR / f"{experiment_id}.txt"
    path.write_text(text + "\n", encoding="utf-8")
    return text


def trial_signature(results) -> list[tuple]:
    """Everything that must coincide per trial across bit-identical runners.

    The canonical equivalence signature used by the event-vs-scalar
    benchmarks (``bench_batch_core``, ``bench_batch_tag``): any divergence in
    stopping time, timeslots, completion, message/helpful counts, per-node
    completion rounds or metadata fails the assertion.
    """
    return [
        (r.rounds, r.timeslots, r.completed, r.messages_sent, r.helpful_messages,
         dict(r.completion_rounds), dict(r.metadata))
        for r in results
    ]


#: Event-side runs behind a perf record's absolute metrics: this host's speed
#: drifts by up to ~50% between back-to-back runs, so one run is not enough.
EVENT_REPEATS = 3


def timed_event_runs(run):
    """Time back-to-back calls of ``run``; ``(median seconds, last result)``.

    Every call returns the same trial results (the runners are
    deterministic), so the last call's results stand for all of them.
    """
    seconds = []
    for _ in range(EVENT_REPEATS):
        start = time.perf_counter()
        results = run()
        seconds.append(time.perf_counter() - start)
    return statistics.median(seconds), results


def event_metrics(seconds: float, results) -> dict[str, tuple[float, str]]:
    """A perf record's absolute event-side metrics: ``name -> (value, unit)``.

    ``trial_s`` is seconds per trial and ``timeslot_us`` microseconds per
    simulated timeslot, the units of the ``BENCHMARK.json`` metrics of the
    same names, so ``check_regression.py`` gates them with those bounds.
    They are wall-clock times of the recording host, not perfbench's
    calibrated reference seconds.
    """
    timeslots = sum(result.timeslots for result in results)
    return {
        "trial_s": (round(seconds / len(results), 6), "s"),
        "timeslot_us": (round(seconds / timeslots * 1e6, 4), "us"),
    }


def _git_revision(checkout: Path = Path(__file__).resolve().parent) -> str | None:
    """The full commit hash of ``checkout``, with ``-dirty`` appended when a
    tracked file differs from that commit; ``None`` outside a checkout.

    A record measured before its change is committed then says so, instead
    of naming the parent commit it did not measure.
    """
    try:
        return subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40", "--exclude=*"],
            cwd=checkout, capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except Exception:
        return None


def peak_rss_mib() -> float | None:
    """This process's lifetime peak RSS in MiB, or ``None`` where unavailable.

    ``resource.getrusage`` reports the high-water mark in KiB on Linux (bytes
    on macOS); the value only ever grows, so memory benchmarks that need a
    *per-phase* peak must run each phase in its own subprocess (see
    ``bench_csr_pipeline``).
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platforms
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - ru_maxrss is bytes there
        return peak / (1024 * 1024)
    return peak / 1024


def report_json(
    experiment_id: str,
    *,
    timings: Mapping[str, float],
    speedup: "float | None" = None,
    n: int,
    trials: int,
    scaled_down: bool = False,
    materialize_seconds: "Mapping[str, float] | None" = None,
    simulate_seconds: "Mapping[str, float] | None" = None,
    metrics: "Mapping[str, tuple[float, str]] | None" = None,
    **extra: Any,
) -> Path | None:
    """Persist machine-readable perf results as ``BENCH_<experiment_id>.json``.

    Every perf benchmark (``bench_batch_core``, ``bench_batch_tag``) writes
    one of these next to its human-readable table, so the speedup trajectory
    can be tracked across revisions by diffing small JSON files instead of
    scraping text reports.  The payload records the workload size, wall-clock
    timings per runner, the headline speedup, the benchmark process's peak
    RSS, the git revision the numbers were produced at (suffixed ``-dirty``
    when a tracked file differs from it), and any benchmark-specific extras.  A record whose headline is not a speedup
    (E14's ``bytes_ratio`` with its ``min_bytes_ratio`` floor) passes
    ``speedup=None`` and names its headline in the extras.

    ``materialize_seconds`` / ``simulate_seconds`` split each runner's
    wall-clock into graph-construction and simulation time, so a record shows
    *where* a speedup lives.  Records may also carry a ``floors`` mapping
    (metric name → minimum value) that ``check_regression.py`` enforces
    alongside the headline ``min_speedup``.

    ``metrics`` (name → ``(value, unit)``, see :func:`event_metrics`)
    adds absolute numbers next to the ratio headline.  Once the committed
    record carries ``metrics``, its values and ``git_rev`` move to
    ``previous`` (as ``record_perfbench.build_record`` does), and
    ``check_regression.py`` fails any metric above
    ``previous × (1 + bound)`` with the ``BENCHMARK.json`` bound.

    ``scaled_down=True`` (a smoke run: the effective workload/floor values
    deviate from the full-size defaults) skips the write and returns ``None``
    — the tracked records must only ever hold full-size numbers, not whatever
    the last ``make bench-smoke`` happened to use.
    """
    if scaled_down:
        print(f"[{experiment_id}] scaled-down run; BENCH json not written")
        return None
    OUTPUT_DIR.mkdir(exist_ok=True)
    path = OUTPUT_DIR / f"BENCH_{experiment_id}.json"
    payload: dict[str, Any] = {
        "experiment": experiment_id,
        "git_rev": _git_revision(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "n": int(n),
        "trials": int(trials),
        "timings_seconds": {name: round(float(secs), 4) for name, secs in timings.items()},
    }
    if speedup is not None:
        payload["speedup"] = round(float(speedup), 3)
    rss = peak_rss_mib()
    if rss is not None:
        payload["peak_rss_mib"] = round(rss, 1)
    if materialize_seconds is not None:
        payload["materialize_seconds"] = {
            name: round(float(secs), 4) for name, secs in materialize_seconds.items()
        }
    if simulate_seconds is not None:
        payload["simulate_seconds"] = {
            name: round(float(secs), 4) for name, secs in simulate_seconds.items()
        }
    if metrics is not None:
        payload["metrics"] = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in sorted(metrics.items())
        }
        committed = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
        if "metrics" in committed:
            payload["previous"] = {
                "metrics": {
                    name: entry["value"]
                    for name, entry in sorted(committed["metrics"].items())
                },
                "git_rev": committed.get("git_rev"),
            }
    payload.update(extra)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path
