"""Measuring process of the benchmark, started by ``run.py``.

Subcommands (each prints one JSON object as its last stdout line):

``measure``
    Repeat the workload's unit (a cold operation, then one cached rerun
    that must serve the same results) for ``--seconds`` and report the
    in-process end-to-end metrics (``--trace 0``), or run the first unit
    untraced and then traced and report the per-layer metrics and the
    tracing overhead (``--trace 1``).  The last unit's store is left under
    ``.perfbench/work/`` for the probes.
``probe``
    In this fresh interpreter, time the workload's cold materialisation
    (``setup_s``, in reference seconds from kernel samples taken right
    before and after it) and then, given ``--unit``, one cached rerun of that unit
    from the store ``measure`` left (``cached_s``), as a user's second
    ``repro`` invocation would run it.  With ``--trace 1`` it reports the
    topology builders inside the set-up instead (``graphs.build_s``).
``reference``
    Recompute the default-seed signatures kept in ``reference.json``, for
    when a change to the program changes results on purpose::

        PYTHONPATH=src python3 perfbench/worker.py reference --workload dense-batch --units 8
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy

import calibration
from tracer import NullTracer, Tracer, install
from workloads import DEFAULT_SEED, WORKLOADS, Outcome, fresh_dir

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
OUTPUT = Path(".perfbench")
MIN_UNITS = 2
#: Kernel samples a probe takes on each side of the set-up it times.
PROBE_SAMPLES = 12


def store_root(workload) -> Path:
    # A fixed relative path: the campaign report body names its store.
    return OUTPUT / "work" / f"{workload.name}-store"


@dataclass
class Unit:
    """One cold unit and its cached rerun."""

    index: int
    cold: "Outcome | None" = None
    cached: "Outcome | None" = None
    error: str = ""

    def ops(self) -> list[Outcome]:
        return [op for op in (self.cold, self.cached) if op is not None]


def run_unit(workload, state, index: int, tracer) -> Unit:
    """Cold unit into a fresh store, then one cached rerun from it."""
    unit = Unit(index)
    root = fresh_dir(store_root(workload))
    try:
        tracer.op = f"u{index}-cold"
        unit.cold = workload.cold(state, index, root, tracer)
        tracer.op = f"u{index}-cached"
        unit.cached = workload.cached(state, index, root, tracer)
    except Exception:  # recorded as a failed operation; the run then stops
        unit.error = traceback.format_exc()
    return unit


def reference_slot(workload, seed: int, index: int,
                   reference: "dict | None") -> "tuple[str, str] | None":
    """``(signature, report digest)`` a unit must match, if any.

    Held-out seeds of a seeded workload run the seed-independent checks
    only; an unseeded workload recomputes the same inputs in every unit.
    """
    if reference is None or (workload.seeded and seed != DEFAULT_SEED):
        return None
    expected = reference.get(workload.name, {"units": [], "reports": []})
    slot = index if workload.seeded else 0
    if slot >= len(expected["units"]):
        return None
    return expected["units"][slot], expected["reports"][slot]


def check_cached(cached: Outcome, cold_signature: str, workload, seed: int,
                 index: int, reference: "dict | None") -> None:
    """A cached rerun serves the cold results and, where pinned, the reference report."""
    if cached.signature != cold_signature:
        cached.problems.append("cached results differ from the cold run")
    expected = reference_slot(workload, seed, index, reference)
    if expected is not None and cached.report != expected[1]:
        cached.problems.append("cached report differs from the reference")


def check_unit(unit: Unit, workload, seed: int, reference: "dict | None") -> None:
    if unit.error or unit.cold is None or unit.cached is None:
        return
    expected = reference_slot(workload, seed, unit.index, reference)
    if expected is not None and unit.cold.signature != expected[0]:
        unit.cold.problems.append(
            f"signature {unit.cold.signature} != reference {expected[0]}"
        )
    check_cached(unit.cached, unit.cold.signature, workload, seed, unit.index, reference)


def tally(units: list[Unit]) -> tuple[int, int, list[str]]:
    """``(attempted, failed, problems)`` over every operation of every unit."""
    attempted = failed = 0
    problems: list[str] = []
    for unit in units:
        for outcome in unit.ops():
            attempted += 1
            if outcome.problems:
                failed += 1
                problems += [f"unit {unit.index}: {p}" for p in outcome.problems]
        if unit.error:
            attempted += 1
            failed += 1
            problems.append(f"unit {unit.index}: {unit.error}")
    return attempted, failed, problems


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}


def stop(started: float, done: int, seconds: float) -> bool:
    """Stop once another unit of the average length would overrun ``seconds``."""
    elapsed = time.perf_counter() - started
    return done >= MIN_UNITS and elapsed + elapsed / done > seconds


def measure_plain(workload, state, args, reference) -> tuple[list[Unit], dict]:
    """Units for ``--seconds``, timed in reference seconds.

    A :class:`calibration.HostSampler` runs through every unit, and each
    cold time is scaled by the host factor of the samples taken during its
    unit.  The raw wall-clock medians and the factors go into the result
    record.
    """
    units: list[Unit] = []
    factors: list[float] = []
    started = time.perf_counter()
    with calibration.HostSampler() as sampler:
        while True:
            first = len(sampler.samples)
            unit = run_unit(workload, state, len(units), NullTracer())
            factors.append(calibration.factor(sampler.samples[first:] or [calibration.timed()]))
            check_unit(unit, workload, args.seed, reference)
            units.append(unit)
            if unit.error or stop(started, len(units), args.seconds):
                break
    cold = [(unit.cold, f) for unit, f in zip(units, factors) if unit.cold]
    if not cold:
        return units, {}
    metrics = {
        "trial_s": statistics.median(o.seconds / o.trials * f for o, f in cold),
        "timeslot_us": statistics.median(o.seconds / o.timeslots * 1e6 * f for o, f in cold),
        # ru_maxrss is KiB on Linux; this process ran nothing but the workload.
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "host": {
            "factors": factors,
            "samples": len(sampler.samples),
            "wall": {
                "trial_s": statistics.median(o.seconds / o.trials for o, _ in cold),
                "timeslot_us": statistics.median(o.seconds / o.timeslots * 1e6 for o, _ in cold),
            },
        },
    }
    return units, metrics


def measure_traced(workload, state, args, reference) -> tuple[list[Unit], dict]:
    """One untraced and one traced run of the same unit.

    Exactly one pair, whatever ``--seconds`` allows, so the count-based
    layer numbers cover the same work in every traced run of a seed.
    """
    tracer = Tracer()
    plain = run_unit(workload, state, 0, NullTracer())
    install(tracer)
    try:
        traced = run_unit(workload, state, 0, tracer)
    finally:
        tracer.uninstall()
    check_unit(plain, workload, args.seed, reference)
    units = [plain, traced]
    if None in (plain.cold, plain.cached, traced.cold, traced.cached):
        return units, {}
    if (traced.cold.signature, traced.cached.report) != (
        plain.cold.signature, plain.cached.report
    ):
        traced.cold.problems.append("traced results differ from untraced ones")
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_ratio"] = traced.cold.seconds / plain.cold.seconds - 1
    tracer.dump(
        OUTPUT / "results" / f"trace-{workload.name}-seed{args.seed}.json",
        {"workload": workload.name, "seed": args.seed, "metrics": metrics},
    )
    return units, metrics


def command_measure(args) -> dict:
    workload = WORKLOADS[args.workload]()
    state = workload.setup(args.seed)
    measure = measure_traced if args.trace else measure_plain
    units, metrics = measure(workload, state, args, load_reference())
    attempted, failed, problems = tally(units)
    last = units[-1]
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
        "probe_unit": (
            [last.index, last.cold.signature] if last.cold and not last.error else None
        ),
        "units": [
            {"index": unit.index, "error": unit.error,
             "ops": [asdict(outcome) for outcome in unit.ops()]}
            for unit in units
        ],
        "environment": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "numba": importlib.util.find_spec("numba") is not None,
        },
    }


def command_probe(args) -> dict:
    workload = WORKLOADS[args.workload]()
    tracer = install(Tracer()) if args.trace else None
    kernel_seconds = [calibration.timed() for _ in range(PROBE_SAMPLES)]
    started = time.perf_counter()
    state = workload.setup(args.seed)
    setup_s = time.perf_counter() - started
    kernel_seconds += [calibration.timed() for _ in range(PROBE_SAMPLES)]
    factor = calibration.factor(kernel_seconds)
    payload: dict = {
        "setup_s": setup_s * factor, "wall_setup_s": setup_s, "factor": factor,
        "problems": [],
    }
    if tracer is not None:
        tracer.uninstall()
        payload["graphs.build_s"] = sum(
            span["ns"] for span in tracer.spans if span["name"] == "graphs.build"
        ) / 1e9
    if args.unit is not None:
        cached = workload.cached(state, args.unit, store_root(workload), NullTracer())
        check_cached(cached, args.signature, workload, args.seed, args.unit,
                     load_reference())
        payload["cached_s"] = cached.seconds
        payload["problems"] = cached.problems
    return payload


def command_reference(args) -> dict:
    workload = WORKLOADS[args.workload]()
    state = workload.setup(DEFAULT_SEED)
    units = [run_unit(workload, state, index, NullTracer()) for index in range(args.units)]
    for unit in units:
        check_unit(unit, workload, DEFAULT_SEED, None)
        if unit.error or any(outcome.problems for outcome in unit.ops()):
            raise SystemExit(f"unit {unit.index} failed its checks: {unit}")
    reference = load_reference()
    reference[workload.name] = {
        "seed": DEFAULT_SEED,
        "units": [unit.cold.signature for unit in units],
        "reports": [unit.cached.report for unit in units],
    }
    REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    return reference[workload.name]


def main() -> int:
    parser = argparse.ArgumentParser(description="benchmark measuring process")
    parser.add_argument("command", choices=("measure", "probe", "reference"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--unit", type=int, help="probe: cached rerun of this unit")
    parser.add_argument("--signature", default="", help="probe: its cold signature")
    parser.add_argument("--units", type=int, default=1, help="reference: units")
    args = parser.parse_args()
    command = {"measure": command_measure, "probe": command_probe,
               "reference": command_reference}[args.command]
    print(json.dumps(command(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
