#!/usr/bin/env python
"""Fail if a committed perf record regressed: ratio floors and absolute ceilings.

Reads every machine-readable perf record ``benchmarks/output/BENCH_*.json``
committed to the repository.  Three kinds exist:

* **ratio records** (written by full-size benchmark runs): the recorded
  headline ratio must reach the record's own asserted floor — E13's
  ``speedup`` against ``min_speedup`` (default 5.0), or E14's
  ``bytes_ratio`` (full over summary record bytes) against
  ``min_bytes_ratio`` — and any extra ``floors`` must hold;
* **absolute records** (E9/E10): no headline ratio, only a ``metrics``
  block with the event side's ``trial_s`` and ``timeslot_us``;
* **repository-benchmark records** ``BENCH_perf-<workload>.json`` (written
  by ``record_perfbench.py``), which carry every end-to-end metric
  ``BENCHMARK.json`` declares.

Any record with a ``metrics`` block gets the ceiling rule: each metric must
stay within ``previous × (1 + bound)``, the bound ``BENCHMARK.json``
declares for that metric (``previous × (1 - bound)`` for a higher-is-better
one).  A record without ``previous`` is the baseline and passes.  A record
with neither a headline nor ``metrics`` is unreadable, and fails.

Run it standalone or via ``make bench-check``::

    python benchmarks/check_regression.py

Exit code 0 when every record holds, 1 on any regression or when no records
exist (an empty perf trajectory is itself a regression).

With ``--store`` the script instead reads a persistent result store — an
export file written by ``python -m repro store export``, or a store
directory — and prints the stopping-time aggregate of every archived
workload, from full ``result`` and streaming ``summary`` records alike, so
a CI artifact or a colleague's exported snapshot can be inspected without
re-running any simulation::

    python benchmarks/check_regression.py --store snapshot.jsonl
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

OUTPUT_DIR = Path(__file__).resolve().parent / "output"
BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
DEFAULT_FLOOR = 5.0
#: The headline ratio a ratio record may carry, each with its floor field.
HEADLINES = (("speedup", "min_speedup"), ("bytes_ratio", "min_bytes_ratio"))


def store_aggregates(path: Path) -> int:
    """Print per-workload stopping-time aggregates from a store/export."""
    _SRC = Path(__file__).resolve().parent.parent / "src"
    if str(_SRC) not in sys.path:
        sys.path.insert(0, str(_SRC))
    from repro.errors import ReproError, StoreError
    from repro.scenarios import ScenarioSpec
    from repro.store import load_snapshot

    try:
        shards = load_snapshot(path)
    except StoreError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    # Full results and summaries both carry ``rounds`` and ``completed``; a
    # key holding both reads its full record (the summary is its projection).
    buckets = {
        fingerprint: {**shard.summaries, **shard.results}
        for fingerprint, shard in shards.items()
        if shard.results or shard.summaries
    }
    if not buckets:
        print(f"error: no trial records in {path}", file=sys.stderr)
        return 1
    for fingerprint, bucket in sorted(buckets.items()):
        # Rebuild the spec so defaulted (omitted) fields print their real
        # values; a missing header (``None``) or one from an incompatible
        # schema gets a placeholder.
        try:
            spec = ScenarioSpec.from_dict(shards[fingerprint].spec)
            label = spec.name or f"{spec.protocol} on {spec.topology}(n={spec.n})"
        except (TypeError, ReproError):
            label = "(unknown workload)"
        # Tolerate schema-divergent payloads (e.g. exports from another
        # version): records without the expected fields count as incomplete
        # rather than crashing the report.
        rounds = [
            record["rounds"]
            for record in bucket.values()
            if record.get("completed") and isinstance(record.get("rounds"), (int, float))
        ]
        incomplete = len(bucket) - len(rounds)
        summary = (
            f"mean={statistics.fmean(rounds):.1f}, max={max(rounds)}"
            if rounds
            else "no completed trials"
        )
        print(
            f"{fingerprint[:12]}  {label}: {len(bucket)} trial record(s), {summary}"
            + (f" ({incomplete} incomplete)" if incomplete else "")
        )
    trials = sum(len(bucket) for bucket in buckets.values())
    print(f"{trials} trial record(s) across {len(buckets)} workload(s)")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--store", type=Path, default=None, metavar="PATH",
        help=(
            "read aggregates from a result-store export file (or store "
            "directory) instead of checking perf records"
        ),
    )
    args = parser.parse_args()
    if args.store is not None:
        return store_aggregates(args.store)
    return check_records(OUTPUT_DIR, BENCHMARK_JSON)


def check_records(output_dir: Path, benchmark_json: Path) -> int:
    """Check every ``BENCH_*.json`` under ``output_dir``; 0 when all hold."""
    records = sorted(output_dir.glob("BENCH_*.json"))
    if not records:
        print(f"error: no BENCH_*.json records under {output_dir}", file=sys.stderr)
        return 1
    failures = 0
    for path in records:
        # A broken record is itself a failure to report, not a crash: keep
        # checking the remaining records so the output isolates the bad file.
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
            repository = path.name.startswith("BENCH_perf-")
            if not repository:
                failures += _check_floors(path.name, record)
            if repository or "metrics" in record:
                failures += _check_ceilings(
                    path.name, record, benchmark_json, complete=repository
                )
        except Exception as error:  # noqa: BLE001
            print(f"{path.name}: unreadable record ({type(error).__name__}: {error}) FAIL")
            failures += 1
    if failures:
        print(f"error: {failures} perf check(s) failed", file=sys.stderr)
        return 1
    return 0


def _check_floors(name: str, record: dict) -> int:
    """Ratio records: the headline ratio and any extra floors."""
    headline = [pair for pair in HEADLINES if pair[0] in record]
    if not headline and "metrics" in record:
        return 0  # an absolute record: its ceilings alone gate it
    if len(headline) != 1:
        raise KeyError(f"want exactly one headline of {[h for h, _ in HEADLINES]}")
    [(metric_name, floor_name)] = headline
    ratio = float(record[metric_name])
    floor = float(record.get(floor_name, DEFAULT_FLOOR))
    # Optional per-metric floors: {"metric": min_value, ...} checked
    # against the record's own top-level fields.
    extra_floors = {
        str(metric): float(minimum)
        for metric, minimum in dict(record.get("floors", {})).items()
    }
    extra_values = {metric: float(record[metric]) for metric in extra_floors}
    ok = ratio >= floor
    print(
        f"{name}: {metric_name} {ratio:.2f}x (floor {floor:.1f}x, "
        f"n={record.get('n')}, trials={record.get('trials')}, "
        f"rev={str(record.get('git_rev'))[:12]}) {'ok' if ok else 'REGRESSION'}"
    )
    failures = not ok
    for metric, minimum in sorted(extra_floors.items()):
        value = extra_values[metric]
        metric_ok = value >= minimum
        print(
            f"{name}: {metric} {value:.2f} (floor {minimum:.1f}) "
            f"{'ok' if metric_ok else 'REGRESSION'}"
        )
        failures += not metric_ok
    return failures


def _check_ceilings(
    name: str, record: dict, benchmark_json: Path, *, complete: bool
) -> int:
    """Each metric against its previous value; ``complete``: all declared ones."""
    declared = json.loads(benchmark_json.read_text(encoding="utf-8"))["end_to_end"]
    metrics = {metric: float(entry["value"]) for metric, entry in record["metrics"].items()}
    names = {entry["name"] for entry in declared}
    if (complete and set(metrics) != names) or not set(metrics) <= names:
        raise ValueError(f"metrics {sorted(metrics)} do not match BENCHMARK.json")
    previous = record.get("previous")
    if previous is None:
        print(f"{name}: baseline (no previous record), rev={str(record.get('git_rev'))[:12]} ok")
        return 0
    failures = 0
    for entry in declared:
        if entry["name"] not in metrics:
            continue
        metric, bound = entry["name"], float(entry["bound"])
        value, before = metrics[metric], float(previous["metrics"][metric])
        if entry["better"] == "lower":
            relation, limit = "ceiling", before * (1 + bound)
            ok = value <= limit
        else:
            relation, limit = "floor", before * (1 - bound)
            ok = value >= limit
        print(
            f"{name}: {metric} {value:.6g} {entry['unit']} (previous {before:.6g}, "
            f"{relation} {limit:.6g}) {'ok' if ok else 'REGRESSION'}"
        )
        failures += not ok
    return failures


if __name__ == "__main__":
    sys.exit(main())
