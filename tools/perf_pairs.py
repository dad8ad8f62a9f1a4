#!/usr/bin/env python
"""Alternating parent/change pairs of one repository-benchmark workload.

Usage, with two checkouts (``git archive <rev> | tar -x -C <dir>`` makes
one)::

    python tools/perf_pairs.py PARENT_DIR CHANGE_DIR --workload sparse-event \\
        [--pairs 10] [--seed 1] [--seconds 30]

Each pair runs the benchmark's command (``python3 perfbench/run.py``, from
``BENCHMARK.json``) with ``--workload W --seed S --seconds N --trace 0``
once from the root of each checkout, the parent first in odd pairs and the
change first in even ones, so a drift in host speed falls on both sides
alike.  Every run's metrics are printed as it ends.  A run whose last
stdout line is not ``"correct": true`` with ``"failed": 0`` stops the
command with exit status 1.  ``--seconds`` defaults to the benchmark's
``run_seconds``.

Then, for each end-to-end metric of the parent's ``BENCHMARK.json``, it
prints each side's median and quartiles, in how many pairs the change was
better (ties count for neither side) and the :func:`verdict`, the first of:

* ``gain`` — at least ten pairs, the change is better in at least 9 of 10
  of them, and the medians differ by more than the parent's interquartile
  range;
* ``worse`` — the change's median is past the metric's bound;
* ``unresolved`` — the parent's interquartile range is wider than the
  bound (as a share of the parent's median), so the runs spread too widely
  to call the metric unchanged, and not every change run is better than
  every parent run;
* ``within bound`` — anything else.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


class PairsError(Exception):
    """A benchmark run failed or was not correct."""


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` of at least two values (``statistics.quantiles``'
    default, exclusive method)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def wins(parent: list[float], change: list[float], better: str) -> int:
    """The pairs in which the change is strictly better than the parent."""
    sign = 1 if better == "lower" else -1
    return sum(sign * (p - c) > 0 for p, c in zip(parent, change, strict=True))


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """``gain``, ``worse``, ``unresolved`` or ``within bound`` for one
    metric's pairs.

    ``parent[i]`` and ``change[i]`` are pair ``i``'s values; ``better`` is
    ``"lower"`` or ``"higher"`` and ``bound`` the relative worsening the
    benchmark allows (see the module docstring).
    """
    sign = 1 if better == "lower" else -1
    p1, parent_median, p3 = quartiles(parent)
    change_median = quartiles(change)[1]
    # Positive when the change's median is the better one.
    gap = (parent_median - change_median) * sign
    spread = p3 - p1
    if (
        len(parent) >= 10
        and 10 * wins(parent, change, better) >= 9 * len(parent)
        and gap > spread
    ):
        return "gain"
    if -gap > bound * parent_median:
        return "worse"
    if spread > bound * parent_median and not all(
        sign * (p - c) > 0 for p in parent for c in change
    ):
        return "unresolved"
    return "within bound"


def run_once(command: list[str], checkout: Path, args: argparse.Namespace) -> dict:
    """One untraced benchmark run in ``checkout``; its ``{name: value}`` metrics."""
    done = subprocess.run(
        [*command, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, text=True,
    )
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise PairsError(
            f"{checkout}: exit status {done.returncode}, no result line"
        ) from None
    if result.get("correct") is not True or result.get("failed") != 0:
        raise PairsError(f"{checkout}: not correct: {lines[-1]}")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def report(metrics: list[dict], parent: list[dict], change: list[dict]) -> list[str]:
    """One line per end-to-end metric: quartiles, wins and verdict."""
    lines = [
        f"{'metric':<13} {'parent median [q1, q3]':<32} "
        f"{'change median [q1, q3]':<32} {'change':>8} {'wins':>6}  verdict"
    ]
    for metric in metrics:
        name, better = metric["name"], metric["better"]
        before = [run[name] for run in parent]
        after = [run[name] for run in change]
        (p1, pm, p3), (c1, cm, c3) = quartiles(before), quartiles(after)
        won = f"{wins(before, after, better)}/{len(before)}"
        lines.append(
            f"{name:<13} {f'{pm:.4g} [{p1:.4g}, {p3:.4g}]':<32} "
            f"{f'{cm:.4g} [{c1:.4g}, {c3:.4g}]':<32} {(cm - pm) / pm:>+8.1%} "
            f"{won:>6}  {verdict(before, after, better, metric['bound'])}"
        )
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 (quartiles need two runs)")
    declared = json.loads((args.parent / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = declared["run_seconds"]
    sides = {"parent": args.parent, "change": args.change}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    try:
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                values = run_once(declared["command"], sides[side], args)
                runs[side].append(values)
                shown = ", ".join(f"{name} {v:.4g}" for name, v in values.items())
                print(f"pair {pair + 1}/{args.pairs} {side}: {shown}", flush=True)
    except PairsError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(f"\n{args.workload}, seed {args.seed}, --seconds {args.seconds}, "
          f"{args.pairs} alternating pairs")
    print("\n".join(report(declared["end_to_end"], runs["parent"], runs["change"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
