#!/usr/bin/env python
"""Commit the repository benchmark's absolute numbers, one record per workload.

``perfbench/run.py`` leaves its full results under ``.perfbench/results/``,
which is not committed.  This script turns the seed-1 runs of a workload
into ``benchmarks/output/BENCH_perf-<workload>.json``:

* ``metrics`` — the four end-to-end metrics (reference units) of the
  untraced run, ``<workload>-seed1-trace0.json``;
* ``layers`` — the per-layer split of the traced run,
  ``<workload>-seed1-trace1.json``;
* ``git_rev`` and ``src_sha256`` — the revision and ``src/`` digest the
  untraced run measured;
* ``previous`` — the ``metrics``, ``git_rev`` and ``src_sha256`` of the
  record this one replaces, when one is committed.

``check_regression.py`` fails any metric above its previous value by more
than the bound ``BENCHMARK.json`` declares for it.  Typical use, after both
runs of every workload::

    for w in sparse-event dense-batch paper-campaign; do
        python3 perfbench/run.py --workload $w --seed 1 --trace 0
        python3 perfbench/run.py --workload $w --seed 1 --trace 1
    done
    python benchmarks/record_perfbench.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUTPUT_DIR = ROOT / "benchmarks" / "output"
RESULTS_DIR = ROOT / ".perfbench" / "results"
WORKLOADS = ("sparse-event", "dense-batch", "paper-campaign")
SEED = 1


def _values(run: dict) -> dict[str, float]:
    return {name: metric["value"] for name, metric in sorted(run["metrics"].items())}


def build_record(workload: str, untraced: dict, traced: dict, previous: "dict | None") -> dict:
    """The committed record of one workload (see the module docstring)."""
    for run in (untraced, traced):
        if not run.get("correct"):
            raise ValueError(
                f"{workload}: trace{run.get('trace')} run is not correct; "
                "only correct runs are recorded"
            )
    environment = untraced.get("environment", {})
    record = {
        "workload": workload,
        "seed": untraced["seed"],
        "seconds": untraced["seconds"],
        "metrics": {
            name: {"value": metric["value"], "unit": metric["unit"]}
            for name, metric in sorted(untraced["metrics"].items())
        },
        "layers": _values(traced),
        "git_rev": environment.get("git"),
        "src_sha256": environment.get("src_sha256"),
        "nproc": environment.get("nproc"),
    }
    if previous is not None:
        record["previous"] = {
            "metrics": _values(previous),
            "git_rev": previous.get("git_rev"),
            "src_sha256": previous.get("src_sha256"),
        }
    return record


def record_workload(workload: str, results: Path, output: Path) -> Path:
    """Write ``BENCH_perf-<workload>.json`` from the results directory."""
    runs = [
        json.loads((results / f"{workload}-seed{SEED}-trace{trace}.json").read_text())
        for trace in (0, 1)
    ]
    path = output / f"BENCH_perf-{workload}.json"
    previous = json.loads(path.read_text()) if path.exists() else None
    record = build_record(workload, *runs, previous)
    output.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def main() -> int:
    try:
        for workload in WORKLOADS:
            print(f"wrote {record_workload(workload, RESULTS_DIR, OUTPUT_DIR)}")
    except (OSError, ValueError, KeyError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
