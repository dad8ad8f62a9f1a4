"""The repository benchmark: one command, three workloads, one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sparse-event --seed 1 --seconds 30 --trace 0

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its
per-layer metrics with ``--trace 1``.  A fuller record (per-operation
timings and checks, environment, revision) goes to
``.perfbench/results/``.

This launcher only orchestrates; it never imports the program.  Each
measurement runs in a fresh interpreter (``worker.py``) with a pinned
environment: every ``REPRO_*`` variable cleared (backend, store, event
kernel, benchmark size knobs), one BLAS/OpenMP thread, a fixed hash seed,
``src/`` as the only import path, and the result store in a throwaway
directory under ``.perfbench/work/``.  ``setup_s`` (and, in a traced run,
the cached rerun) is the median of further fresh interpreters, each as a
user's next ``repro`` invocation would start: process-wide caches (the
keyed CSR adjacency LRU, the GF extension tables) would turn an in-process
repeat of the set-up into a cache hit, and a millisecond cached rerun
inside the measuring process swings with whatever its allocator holds from
the cold run.  ``peak_rss_mib`` comes from the measuring process alone,
because ``ru_maxrss`` only ever grows.  End-to-end times are reference
seconds: wall seconds scaled by the host speed measured around them
(``calibration.py``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("sparse-event", "dense-batch", "paper-campaign")
DEFAULT_SEED = 1
PROBES = 5
TRACED_PROBES = 3
PINNED = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class BenchError(Exception):
    """The benchmark could not run; reported on stderr with a non-zero exit."""


def pinned_environment(root: Path) -> dict[str, str]:
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env.update(PINNED)
    env["PYTHONPATH"] = str(root / "src")
    return env


def child(root: Path, env: dict[str, str], args: list[str], timeout: float) -> dict:
    """Run ``worker.py`` to completion and parse its last stdout line."""
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=root, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args[:3]} exceeded {timeout:.0f} s") from None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"worker {args[:3]} exited with code {done.returncode}")
    return json.loads(lines[-1])


def revision(root: Path) -> dict[str, str | None]:
    """The git revision when there is one, and a digest of ``src/`` always."""
    sources = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        sources.update(str(path.relative_to(root)).encode())
        sources.update(path.read_bytes())
    git = None
    if shutil.which("git") and (root / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True
        )
        git = done.stdout.strip() or None
    return {"git": git, "src_sha256": sources.hexdigest()}


def run(args: argparse.Namespace, root: Path) -> dict:
    if not (root / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"{root} holds no src/repro package to measure")
    declared = json.loads((root / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    env = pinned_environment(root)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--trace", str(args.trace)]
    try:
        measured = child(
            root, env, ["measure", *common, "--seconds", str(args.seconds)],
            timeout=args.seconds + 150,
        )
        cached = []
        if args.trace and measured["probe_unit"]:
            index, signature = measured["probe_unit"]
            cached = ["--unit", str(index), "--signature", signature]
        repeats = TRACED_PROBES if args.trace else PROBES
        probes = [child(root, env, ["probe", *common, *cached], 120) for _ in range(repeats)]
    finally:
        shutil.rmtree(root / ".perfbench" / "work", ignore_errors=True)
    values = measured.pop("metrics")
    host = values.pop("host", None)
    if not args.trace and host is not None:
        values["setup_s"] = statistics.median(p["setup_s"] for p in probes)
        host["wall"]["setup_s"] = statistics.median(p["wall_setup_s"] for p in probes)
    else:
        values["graphs.build_s"] = statistics.median(p["graphs.build_s"] for p in probes)
        if cached:
            values["store.cached_rerun_s"] = statistics.median(p["cached_s"] for p in probes)
            measured["attempted"] += len(probes)
            for probe in probes:
                measured["failed"] += bool(probe["problems"])
                measured["problems"] += [f"probe: {p}" for p in probe["problems"]]
    missing = [m["name"] for m in wanted if values.get(m["name"]) is None]
    if missing:
        measured["problems"].append(f"metrics not measured: {missing}")
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in wanted if values.get(m["name"]) is not None
    }
    correct = not measured["problems"] and measured["failed"] == 0 and not missing
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "metrics": metrics,
        "host": host,
        "probes": probes,
        "environment": {
            **measured.pop("environment"),
            "nproc": os.cpu_count(),
            "platform": platform.platform(),
            "pinned": PINNED,
            **revision(root),
        },
        **measured,
    }
    results = root / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1, sort_keys=True))
    for problem in measured["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    return {
        "correct": correct,
        "attempted": max(1, measured["attempted"]),
        "failed": measured["failed"] if measured["attempted"] else 1,
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        result = run(args, Path.cwd())
    except BenchError as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
