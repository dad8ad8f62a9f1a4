"""Command-line interface.

Six subcommands cover the common workflows (run ``python -m repro <cmd>
--help`` for the full flag reference of each):

``run``
    Gossip dissemination on a named topology with a chosen protocol.  One
    run by default; with ``--trials`` it becomes a Monte Carlo measurement
    that reports stopping-time statistics (with ``--jobs``, over worker
    processes).  Both run on the engine the rule picks — the event-driven
    engine for uniform AG, TAG and standalone spanning trees — and print
    the engine that ran::

        python -m repro run --topology barbell --n 24 --protocol tag --seed 3
        python -m repro run --topology complete --n 64 --trials 32 --jobs 4

    The flags assemble a :class:`~repro.scenarios.ScenarioSpec` under the
    hood; ``--show-spec`` prints it as JSON instead of running, and the
    printed document can be fed back through ``scenario run --file``.

``scenario``
    The named-scenario registry: ``list`` the built-in scenarios, ``show``
    one (with the engine it runs on) or its JSON, ``run`` one by name (or any
    spec from a JSON file), and
    ``check`` that every registered scenario materialises and completes::

        python -m repro scenario list
        python -m repro scenario show churn/ring-crash-restart --json
        python -m repro scenario run tag/brr-barbell --trials 8
        python -m repro scenario run --file my_scenario.json

``campaign``
    Declarative experiment campaigns: coordinated sets of scenario sweeps
    (Table 1, Table 2, the Theorem 2/5 experiments, the measured-vs-bound
    tables, or the whole paper) executed incrementally through the result
    store and rendered as a self-documenting Markdown + HTML report.
    ``list`` the built-in campaigns, ``show`` one, ``run`` one (resumable; a
    repeated run simulates nothing), or ``report`` from an already-filled
    store without simulating::

        python -m repro campaign list
        python -m repro campaign run table1 --trials 2
        python -m repro campaign run bounds
        python -m repro campaign run full-paper --jobs 4
        python -m repro campaign report table1 --report-dir reports/table1

    The built-in ``asymptotics`` campaign sweeps ``n`` over decades through
    the streaming-summary store path and fits the stopping-time exponent;
    ``--min-n`` / ``--max-n`` / ``--points-per-decade`` rebuild it at any
    scale (``--max-n 1000000`` is the full-scale measurement)::

        python -m repro campaign run asymptotics --max-n 10000 --trials 5
        python -m repro campaign run asymptotics --max-n 1000000

``analyze``
    Post-hoc analysis over an already-filled store.  ``fit`` takes two or
    more cached workloads (fingerprint prefixes) forming a size sweep and
    fits the stopping-time exponent ``T(n) = c·n^a`` with a bootstrap
    confidence interval (:func:`repro.analysis.fit_decades`)::

        python -m repro analyze fit 3f1c 9a2e c07d --store .repro-store
        python -m repro analyze fit 3f1c 9a2e --bootstrap 500 --json

``store``
    The persistent content-addressed result store.  ``run`` and
    ``scenario run`` accept ``--store [PATH]`` (or the ``REPRO_STORE``
    environment variable; ``--no-store`` disables, ``--fresh`` recomputes):
    cached trials of the same workload/seed are read back bit-identically and
    new trials are appended, so interrupted commands resume and repeated
    commands cost nothing.  The subcommands inspect and maintain a store::

        python -m repro run --topology barbell --n 24 --trials 32 --store
        python -m repro store ls
        python -m repro store show 3f1c --json
        python -m repro store export snapshot.jsonl
        python -m repro store diff .repro-store snapshot.jsonl

``tables``
    Print the analytic reproduction of the paper's Table 1 and Table 2 for a
    chosen ``n`` and ``k``, on any set of registered topologies::

        python -m repro tables --n 32 --k 16 --topologies ring grid barbell

Every stochastic quantity derives from ``--seed`` (see
:mod:`repro.core.rng`), so any reported number can be reproduced exactly by
re-running the same command — including under ``--jobs``, because each trial's
generator depends only on the root seed and the trial index, never on the
process that executes it.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from pathlib import Path
from typing import Iterator, Sequence

from .analysis import format_table, table1_rows, table2_rows
from .campaigns import (
    CAMPAIGNS,
    campaign_names,
    get_campaign,
    load_campaign_file,
    render_text_summary,
    run_campaign,
    write_report,
)
from .core import TimeModel
from .errors import ReproError
from .graphs import TOPOLOGY_BUILDERS, build_topology
from .scenarios import (
    SCENARIOS,
    ScenarioSpec,
    default_scenario_config,
    get_scenario,
    scenario_names,
)
from .store import ResultStore, diff_snapshots, load_snapshot

__all__ = ["main", "build_parser"]

#: CLI protocol choice → (spec protocol, spanning tree).
_PROTOCOL_CHOICES = {
    "uniform": ("uniform", "brr"),
    "tag": ("tag", "brr"),
    "tag-is": ("tag", "is"),
}

#: Environment override and fallback location for the persistent result store.
_STORE_ENV = "REPRO_STORE"
_DEFAULT_STORE = ".repro-store"


def _add_store_arguments(parser: argparse.ArgumentParser) -> None:
    """The ``--store / --no-store / --fresh`` trio shared by the run commands."""
    parser.add_argument(
        "--store", nargs="?", const=_DEFAULT_STORE, default=None, metavar="PATH",
        help=(
            "persistent content-addressed result store: cached trials of the "
            "same workload/seed are reused, newly computed trials are saved.  "
            f"PATH defaults to {_DEFAULT_STORE}; the {_STORE_ENV} environment "
            "variable enables a store without the flag"
        ),
    )
    parser.add_argument(
        "--no-store", action="store_true",
        help=f"disable the result store even when {_STORE_ENV} is set",
    )
    parser.add_argument(
        "--fresh", action="store_true",
        help=(
            "recompute every trial instead of reading the store (results are "
            "still saved; deterministic trials make this a pure re-verification)"
        ),
    )


def _open_store(args: argparse.Namespace) -> ResultStore | None:
    """The store the run flags select, or ``None`` when storing is off."""
    if getattr(args, "no_store", False):
        return None
    path = getattr(args, "store", None)
    if path is None:
        path = os.environ.get(_STORE_ENV) or None
    if path is None:
        return None
    return ResultStore(path)


def _existing_store(path: "str | None") -> ResultStore:
    """Open a store for the management commands (missing directory is an error).

    Opened without load-time repair: ``ls``/``show``/``export`` must not
    modify the files they read, and ``gc``'s atomic rewrite drops interrupted
    fragments anyway.
    """
    resolved = path or os.environ.get(_STORE_ENV) or _DEFAULT_STORE
    return ResultStore(resolved, create=False, repair=False)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Order Optimal Information Spreading Using "
            "Algebraic Gossip' (Avin et al., PODC 2011)."
        ),
        epilog=(
            "All randomness derives from --seed; identical commands print "
            "identical numbers."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser(
        "run",
        help="run gossip dissemination (one run, or --trials N for statistics)",
        description=(
            "Disseminate k messages over a named topology and report the "
            "stopping time.  With --trials 1 (the default) prints the single "
            "run's summary and protocol metadata; with --trials N runs N "
            "independently seeded trials — on the event-driven engine for "
            "uniform AG and TAG, and across --jobs worker processes if "
            "requested — and prints the aggregate stopping-time statistics.  "
            "Either way it prints the engine that ran and why."
        ),
    )
    run_parser.add_argument(
        "--topology", choices=sorted(TOPOLOGY_BUILDERS), default="ring",
        help="communication graph family (default: %(default)s)",
    )
    run_parser.add_argument(
        "--n", type=int, default=16,
        help="number of nodes; some families round it, e.g. grids (default: %(default)s)",
    )
    run_parser.add_argument(
        "--k", type=int, default=None,
        help="number of source messages (default: n, i.e. all-to-all)",
    )
    run_parser.add_argument(
        "--protocol", choices=sorted(_PROTOCOL_CHOICES), default="uniform",
        help=(
            "uniform = uniform algebraic gossip (Theorem 1); tag = TAG with "
            "the round-robin broadcast tree (Theorem 4); tag-is = TAG with "
            "the simulated IS protocol (Section 6) (default: %(default)s)"
        ),
    )
    run_parser.add_argument(
        "--time-model", choices=[m.value for m in TimeModel],
        default=TimeModel.SYNCHRONOUS.value,
        help="synchronous rounds or asynchronous timeslots (default: %(default)s)",
    )
    run_parser.add_argument(
        "--field-size", type=int, default=16,
        help="RLNC field order q, any supported prime power (default: %(default)s)",
    )
    run_parser.add_argument(
        "--seed", type=int, default=0,
        help="root seed for all randomness (default: %(default)s)",
    )
    run_parser.add_argument(
        "--trials", type=int, default=1,
        help=(
            "number of independently seeded trials; values > 1 switch to the "
            "Monte Carlo statistics mode (default: %(default)s)"
        ),
    )
    run_parser.add_argument(
        "--jobs", type=int, default=None,
        help=(
            "worker processes for --trials > 1; results are identical for "
            "any value (default: run in-process)"
        ),
    )
    run_parser.add_argument(
        "--engine", choices=["scalar", "event"], default="",
        help=(
            "pin the engine: scalar (sequential reference) or event "
            "(event-driven engine); engines are bit-identical, so this "
            "changes wall-clock only — an engine that cannot run the "
            "workload refuses instead of falling back (default: the rule's "
            "pick, event for every --protocol)"
        ),
    )
    run_parser.add_argument(
        "--profile", type=Path, nargs="?", const=Path("repro-run.prof"),
        default=None, metavar="PROF",
        help=(
            "profile the simulation loop with cProfile (either engine): "
            "dump the stats to PROF (default: %(const)s) and print the top "
            "20 functions by cumulative time"
        ),
    )
    run_parser.add_argument(
        "--show-spec", action="store_true",
        help=(
            "print the ScenarioSpec JSON these flags describe instead of "
            "running it (feed it back through 'scenario run --file')"
        ),
    )
    _add_store_arguments(run_parser)

    scenario_parser = subparsers.add_parser(
        "scenario",
        help="list, inspect, run and smoke-check declarative scenarios",
        description=(
            "The scenario registry: every workload in this repository is a "
            "declarative, JSON-round-trippable ScenarioSpec (topology, size, "
            "placement, protocol, config — including churn schedules and "
            "heterogeneous activation rates — plus the trial/seed plan).  "
            "The same spec drives the CLI, the campaigns and the benchmarks "
            "with identical seeded results."
        ),
    )
    scenario_actions = scenario_parser.add_subparsers(dest="action", required=True)

    scenario_actions.add_parser(
        "list", help="list every registered scenario with its description"
    )

    show_parser = scenario_actions.add_parser(
        "show", help="print one registered scenario"
    )
    # Resolved dynamically via get_scenario (not argparse choices) so
    # user-registered scenarios work here exactly as in 'scenario run'.
    show_parser.add_argument("name", metavar="NAME",
                             help="registered scenario name (see 'scenario list')")
    show_parser.add_argument(
        "--json", action="store_true",
        help="print the spec as its canonical JSON document (default: summary)",
    )

    scenario_run_parser = scenario_actions.add_parser(
        "run",
        help="run a registered scenario (or a spec from a JSON file)",
        description=(
            "Runs the scenario's Monte Carlo plan and prints the "
            "stopping-time statistics.  --trials/--seed override the spec's "
            "plan; --jobs/--engine control execution only (results are "
            "identical for any value)."
        ),
    )
    scenario_run_parser.add_argument(
        "name", nargs="?", default=None, metavar="NAME",
        help="registered scenario name (omit when using --file)",
    )
    scenario_run_parser.add_argument(
        "--file", type=Path, default=None,
        help="load the ScenarioSpec from a JSON document instead",
    )
    scenario_run_parser.add_argument(
        "--trials", type=int, default=None,
        help="override the spec's trial count",
    )
    scenario_run_parser.add_argument(
        "--seed", type=int, default=None,
        help="override the spec's root seed",
    )
    scenario_run_parser.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes (default: run in-process)",
    )
    scenario_run_parser.add_argument(
        "--engine", choices=["scalar", "event"], default="",
        help=(
            "override the spec's engine (scalar / event; bit-identical "
            "results, different wall-clock; default: the spec's own choice)"
        ),
    )
    scenario_run_parser.add_argument(
        "--profile", type=Path, nargs="?", const=Path("repro-run.prof"),
        default=None, metavar="PROF",
        help=(
            "profile the simulation loop with cProfile: dump the stats to "
            "PROF (default: %(const)s) and print the top 20 functions by "
            "cumulative time"
        ),
    )
    _add_store_arguments(scenario_run_parser)

    stats_parser = scenario_actions.add_parser(
        "stats",
        help="print topology statistics and materialisation cost of a scenario",
        description=(
            "Builds the scenario's topology cold (no cache) and prints "
            "node/edge counts, the degree profile and the build time."
        ),
    )
    stats_parser.add_argument(
        "name", metavar="NAME",
        help="registered scenario name (see 'scenario list')",
    )
    stats_parser.add_argument(
        "--json", action="store_true",
        help="print the statistics as a JSON object (default: summary lines)",
    )

    check_parser = scenario_actions.add_parser(
        "check",
        help="materialise and smoke-run every registered scenario",
        description=(
            "The registry health check behind 'make scenarios-check': every "
            "registered scenario is materialised and run for a single trial; "
            "any failure is reported and the exit code is non-zero."
        ),
    )
    check_parser.add_argument(
        "--trials", type=int, default=1,
        help="trials per scenario (default: %(default)s)",
    )

    campaign_parser = subparsers.add_parser(
        "campaign",
        help="run declarative experiment campaigns with incremental execution",
        description=(
            "A campaign names a coordinated set of scenario sweeps plus the "
            "derived artifacts (regenerated paper tables, CSV extracts, rank-"
            "evolution curves) of its report.  Campaigns execute through the "
            "persistent result store: interrupted runs resume, repeated runs "
            "simulate nothing, and every run renders a self-documenting "
            "Markdown + HTML report whose body is byte-identical across "
            "fully-cached re-runs."
        ),
    )
    campaign_actions = campaign_parser.add_subparsers(dest="action", required=True)

    campaign_actions.add_parser(
        "list", help="list every registered campaign with its title"
    )

    campaign_show_parser = campaign_actions.add_parser(
        "show", help="print one campaign (units, DAG order, artifacts)"
    )
    campaign_show_parser.add_argument(
        "name", metavar="NAME", help="registered campaign name (see 'campaign list')"
    )
    campaign_show_parser.add_argument(
        "--json", action="store_true",
        help="print the campaign as its canonical JSON document (default: summary)",
    )

    def _campaign_run_arguments(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "name", nargs="?", default=None, metavar="NAME",
            help="registered campaign name (omit when using --file)",
        )
        sub.add_argument(
            "--file", type=Path, default=None,
            help="load the campaign from a TOML or JSON file instead",
        )
        sub.add_argument(
            "--store", default=None, metavar="PATH",
            help=(
                "result store the campaign executes through (default: "
                f"${_STORE_ENV} or {_DEFAULT_STORE}; campaigns always use a "
                "store — that is what makes them incremental and resumable)"
            ),
        )
        sub.add_argument(
            "--report-dir", type=Path, default=None, metavar="DIR",
            help="where to write report.md / report.html and the CSV extracts "
                 "(default: reports/<campaign-name>)",
        )
        sub.add_argument(
            "--format", choices=["md", "html", "both"], default="both",
            help="report format(s) to write (default: %(default)s)",
        )
        sub.add_argument(
            "--min-n", type=int, default=None, metavar="N",
            help=(
                "asymptotics campaign only: rebuild the decade sweep starting "
                "at this size (default: the registered campaign's 1000)"
            ),
        )
        sub.add_argument(
            "--max-n", type=int, default=None, metavar="N",
            help=(
                "asymptotics campaign only: rebuild the decade sweep up to "
                "this size — 1000000 is the full-scale measurement "
                "(default: the registered campaign's 10000)"
            ),
        )
        sub.add_argument(
            "--points-per-decade", type=int, default=None, metavar="P",
            help=(
                "asymptotics campaign only: geometric steps per decade of the "
                "rebuilt sweep (default: 1)"
            ),
        )

    campaign_run_parser = campaign_actions.add_parser(
        "run",
        help="execute a campaign incrementally and write its report",
        description=(
            "Executes every unit of the campaign DAG through the result "
            "store — only trials the store does not hold are simulated — "
            "then writes the Markdown/HTML report.  Re-running a completed "
            "campaign computes nothing (store puts == 0)."
        ),
    )
    _campaign_run_arguments(campaign_run_parser)
    campaign_run_parser.add_argument(
        "--trials", type=int, default=None,
        help="campaign-wide override of every unit's trial count (smoke scale)",
    )
    campaign_run_parser.add_argument(
        "--seed", type=int, default=None,
        help="campaign-wide override of every unit's root seed",
    )
    campaign_run_parser.add_argument(
        "--jobs", type=int, default=None,
        help=(
            "worker processes, shared across all units of the campaign "
            "(default: run in-process)"
        ),
    )
    campaign_run_parser.add_argument(
        "--fresh", action="store_true",
        help=(
            "recompute every trial instead of reading the store (results are "
            "verified against the archive and any divergence fails loudly)"
        ),
    )

    campaign_report_parser = campaign_actions.add_parser(
        "report",
        help="render a campaign's report from an already-filled store",
        description=(
            "Report-only mode: reads every unit's Monte Carlo trials from "
            "the store and renders the Markdown/HTML report without "
            "simulating any of them.  Fails (exit 2) naming the missing "
            "units when the store is incomplete — run the campaign first.  "
            "(Exception: a rank-evolution artifact replays trial 0 of each "
            "named unit on the event engine to record its per-round rank "
            "curve, which the store does not hold.)"
        ),
    )
    _campaign_run_arguments(campaign_report_parser)
    campaign_report_parser.add_argument(
        "--trials", type=int, default=None,
        help="campaign-wide trials override (must match the executed run)",
    )
    campaign_report_parser.add_argument(
        "--seed", type=int, default=None,
        help="campaign-wide seed override (must match the executed run)",
    )

    analyze_parser = subparsers.add_parser(
        "analyze",
        help="post-hoc analysis over an already-filled result store",
        description=(
            "Analyses that consume cached trials without simulating "
            "anything.  'fit' takes two or more cached workloads forming a "
            "size sweep and fits the stopping-time exponent T(n) = c*n^a by "
            "least squares on the log-log means, with a deterministic "
            "bootstrap confidence interval."
        ),
    )
    analyze_actions = analyze_parser.add_subparsers(dest="action", required=True)

    fit_parser = analyze_actions.add_parser(
        "fit",
        help="fit the stopping-time exponent over cached workloads",
        description=(
            "Each FINGERPRINT (any unambiguous prefix) names a cached "
            "workload whose spec provides its size n and trial plan; the "
            "fit runs over the per-size stopping-time samples the store "
            "holds (full results and streaming summaries alike).  At least "
            "two distinct sizes are required."
        ),
    )
    fit_parser.add_argument(
        "fingerprints", nargs="+", metavar="FINGERPRINT",
        help="cached workload fingerprints (unambiguous prefixes), one per size",
    )
    fit_parser.add_argument(
        "--bootstrap", type=int, default=200,
        help="bootstrap replicates behind the confidence interval (default: %(default)s)",
    )
    fit_parser.add_argument(
        "--confidence", type=float, default=0.95,
        help="two-sided CI coverage, strictly between 0 and 1 (default: %(default)s)",
    )
    fit_parser.add_argument(
        "--fit-seed", type=int, default=0,
        help="root seed of the bootstrap streams (default: %(default)s)",
    )
    fit_parser.add_argument(
        "--json", action="store_true",
        help="print the fit as a JSON object (default: one summary line)",
    )
    fit_parser.add_argument(
        "--store", default=None, metavar="PATH",
        help=f"store directory (default: ${_STORE_ENV} or {_DEFAULT_STORE})",
    )

    store_parser = subparsers.add_parser(
        "store",
        help="inspect and maintain the persistent result store",
        description=(
            "The content-addressed result store archives every computed "
            "trial as an append-only (workload fingerprint, seed, trial) "
            "record.  'ls' lists the cached workloads, 'show' inspects one, "
            "'gc' compacts / prunes, 'export' writes a portable single-file "
            "snapshot, and 'diff' compares two stores or exports "
            "record-for-record (identical seeded trials must never differ).  "
            f"The store path defaults to $" + _STORE_ENV + f" or {_DEFAULT_STORE}."
        ),
    )
    store_actions = store_parser.add_subparsers(dest="action", required=True)

    def _store_path_option(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--store", default=None, metavar="PATH",
            help=f"store directory (default: ${_STORE_ENV} or {_DEFAULT_STORE})",
        )

    ls_parser = store_actions.add_parser(
        "ls", help="list every cached workload with its trial count"
    )
    _store_path_option(ls_parser)

    store_show_parser = store_actions.add_parser(
        "show", help="show one cached workload (spec + aggregate statistics)"
    )
    store_show_parser.add_argument(
        "fingerprint", metavar="FINGERPRINT",
        help="workload fingerprint (any unambiguous prefix)",
    )
    store_show_parser.add_argument(
        "--json", action="store_true",
        help="print the stored spec as its canonical JSON document",
    )
    _store_path_option(store_show_parser)

    gc_parser = store_actions.add_parser(
        "gc",
        help="compact shards (drop duplicate records); --keep prunes workloads",
    )
    gc_parser.add_argument(
        "--keep", nargs="+", default=None, metavar="FINGERPRINT",
        help=(
            "keep only these workloads (unambiguous fingerprint prefixes) and "
            "delete every other shard; default keeps everything and only compacts"
        ),
    )
    _store_path_option(gc_parser)

    export_parser = store_actions.add_parser(
        "export", help="write the store (or selected workloads) as one JSONL file"
    )
    export_parser.add_argument("output", type=Path, metavar="OUTPUT",
                               help="path of the export file to write")
    export_parser.add_argument(
        "--fingerprint", nargs="+", default=None, metavar="FINGERPRINT",
        help="export only these workloads (default: the whole store)",
    )
    _store_path_option(export_parser)

    diff_parser = store_actions.add_parser(
        "diff",
        help="compare two stores (directories) or exports (files) record-for-record",
    )
    diff_parser.add_argument("left", type=Path, metavar="LEFT",
                             help="store directory or export file")
    diff_parser.add_argument("right", type=Path, metavar="RIGHT",
                             help="store directory or export file")

    tables_parser = subparsers.add_parser(
        "tables",
        help="print the analytic Table 1 and Table 2 reproductions",
        description=(
            "Evaluate the paper's Table 1 (protocol comparison bounds) and "
            "Table 2 (per-topology graph parameters and bounds) analytically "
            "for the given n and k — no simulation involved."
        ),
    )
    tables_parser.add_argument(
        "--n", type=int, default=32,
        help="number of nodes to evaluate the bounds at (default: %(default)s)",
    )
    tables_parser.add_argument(
        "--k", type=int, default=16,
        help="number of messages to evaluate the bounds at (default: %(default)s)",
    )
    tables_parser.add_argument(
        "--topologies", nargs="+", choices=sorted(TOPOLOGY_BUILDERS),
        default=["ring", "grid", "complete"], metavar="TOPOLOGY",
        help=(
            "topology families Table 1 measures D and Δ on — any registered "
            "builder (default: %(default)s)"
        ),
    )

    return parser


def _spec_from_run_args(args: argparse.Namespace) -> ScenarioSpec:
    """Assemble the declarative scenario the ``run`` flags describe."""
    protocol, spanning_tree = _PROTOCOL_CHOICES[args.protocol]
    return ScenarioSpec(
        topology=args.topology,
        n=args.n,
        k=args.k,
        protocol=protocol,
        spanning_tree=spanning_tree,
        config=default_scenario_config(
            time_model=TimeModel(args.time_model),
            field_size=args.field_size,
            max_rounds=200_000,
        ),
        trials=args.trials,
        seed=args.seed,
        engine=args.engine,
    )


@contextlib.contextmanager
def _profiled(path: "Path | None") -> Iterator[None]:
    """cProfile the enclosed block: dump stats to ``path``, print the top 20.

    A ``None`` path is a no-op passthrough so the run commands can wrap their
    simulation loop unconditionally.  The profile brackets exactly the engine
    execution — materialisation (graph building, placement resolution) stays
    outside, so the printed hotspots are the simulation's own.
    """
    if path is None:
        yield
        return
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        yield
    finally:
        profiler.disable()
        profiler.dump_stats(path)
        pstats.Stats(profiler).sort_stats("cumulative").print_stats(20)
        print(f"profile: full stats written to {path}")


def _run_scenario_spec(
    spec: ScenarioSpec,
    *,
    trials: int | None,
    seed: int | None,
    jobs: int | None,
    store: ResultStore | None = None,
    fresh: bool = False,
    title_prefix: str | None = None,
    profile: "Path | None" = None,
) -> int:
    """Shared execution path of ``run`` and ``scenario run``.

    A ``seed`` override replaces the spec's root seed *before*
    materialisation, so every stochastic ingredient — including a
    ``random`` placement — re-derives from it.
    """
    if seed is not None:
        spec = spec.replace(seed=seed)
    scenario = spec.materialize()
    # Title uses the materialised n/k (topology rounding / k clamping applied).
    title = spec.name or f"{scenario.spec.topology}(n={scenario.n}, k={scenario.k})"
    if title_prefix is not None:
        title = f"{title_prefix} {scenario.spec.topology}(n={scenario.n}, k={scenario.k})"
    trials = spec.trials if trials is None else trials
    if trials < 1:
        print(f"error: --trials must be positive, got {trials}", file=sys.stderr)
        return 2
    if trials == 1:
        with _profiled(profile):
            result = scenario.run_single(store=store, fresh=fresh)
        print(f"{title}: {result.summary()}")
        for key, value in sorted(result.metadata.items()):
            print(f"  {key}: {value}")
        _print_engine(*scenario.select_engine())
        _print_store_summary(store)
        return 0 if result.completed else 1
    with _profiled(profile):
        stats = scenario.run(trials=trials, jobs=jobs, store=store, fresh=fresh)
    print(f"{title}: {stats.summary()}")
    _print_engine(*scenario.select_engine())
    _print_store_summary(store)
    return 0


def _print_engine(engine: str, reason: str) -> None:
    print(f"engine: {engine} ({reason})")


def _print_store_summary(store: ResultStore | None) -> None:
    if store is None:
        return
    print(
        f"store: {store.hits} trial(s) read from cache, "
        f"{store.puts} newly computed and saved ({store.root})"
    )


def _command_run(args: argparse.Namespace) -> int:
    spec = _spec_from_run_args(args)
    if args.show_spec:
        print(spec.to_json())
        return 0
    return _run_scenario_spec(
        spec,
        trials=args.trials,
        seed=None,  # args.seed is already the spec's root seed
        jobs=1 if args.jobs is None else args.jobs,
        store=_open_store(args),
        fresh=args.fresh,
        title_prefix=f"{args.protocol} on",
        profile=args.profile,
    )


def _command_scenario(args: argparse.Namespace) -> int:
    if args.action == "list":
        rows = [
            {"name": name, "description": SCENARIOS[name].description or "-"}
            for name in scenario_names()
        ]
        print(format_table(rows, title=f"Registered scenarios ({len(rows)})"))
        return 0
    if args.action == "show":
        spec = get_scenario(args.name)
        if args.json:
            print(spec.to_json())
            return 0
        print(f"{spec.name}: {spec.description}")
        protocol = spec.protocol
        if protocol in ("tag", "spanning_tree"):
            protocol += f" ({spec.spanning_tree})"
        print(f"  workload:  {protocol} on {spec.topology}(n={spec.n}), "
              f"k={spec.k if spec.k is not None else 'n'}, placement={spec.placement}")
        print(f"  config:    {spec.config.time_model.value}, q={spec.config.field_size}, "
              f"loss={spec.config.loss_probability}")
        if spec.config.churn:
            mode = "reset" if spec.config.churn_reset else "pause"
            print(f"  churn:     {len(spec.config.churn)} event(s), {mode} mode")
        activation = dict(spec.activation)
        kind = activation.pop("kind", "uniform")
        if kind != "uniform":
            suffix = f" {activation}" if activation else ""
            print(f"  activation: {kind}{suffix}")
        print(f"  plan:      {spec.trials} trial(s), seed {spec.seed}")
        engine, reason = spec.materialize().select_engine()
        print(f"  engine:    {engine} ({reason})")
        print("  (use --json for the exact machine-readable spec)")
        return 0
    if args.action == "run":
        if (args.name is None) == (args.file is None):
            print("error: give exactly one of NAME or --file", file=sys.stderr)
            return 2
        if args.file is not None:
            try:
                spec = ScenarioSpec.from_json(args.file.read_text(encoding="utf-8"))
            except OSError as error:
                print(f"error: cannot read {args.file}: {error}", file=sys.stderr)
                return 2
            except json.JSONDecodeError as error:
                print(f"error: {args.file} is not valid JSON: {error}", file=sys.stderr)
                return 2
        else:
            spec = get_scenario(args.name)
        if args.engine:
            spec = spec.replace(engine=args.engine)
        return _run_scenario_spec(
            spec,
            trials=args.trials,
            seed=args.seed,
            jobs=args.jobs,
            store=_open_store(args),
            fresh=args.fresh,
            profile=args.profile,
        )
    if args.action == "stats":
        return _command_scenario_stats(args)
    return _command_scenario_check(args)


def _command_scenario_stats(args: argparse.Namespace) -> int:
    """Cold-build a scenario's topology and print its structural statistics."""
    import time

    spec = get_scenario(args.name)
    start = time.perf_counter()
    # The raw builder, not build_topology: its cache would make the timing warm.
    graph = TOPOLOGY_BUILDERS[spec.topology](spec.n, **dict(spec.topology_params))
    elapsed = time.perf_counter() - start
    degrees = graph.degrees()
    stats = {
        "scenario": spec.name or args.name,
        "topology": spec.topology,
        "n": graph.number_of_nodes(),
        "m": graph.number_of_edges(),
        "degree_min": int(degrees.min()),
        "degree_mean": round(float(degrees.mean()), 3),
        "degree_max": int(degrees.max()),
        "materialize_seconds": round(elapsed, 6),
    }
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True))
        return 0
    print(f"{stats['scenario']}: {stats['topology']}")
    print(f"  n:           {stats['n']}")
    print(f"  m:           {stats['m']} edges")
    print(
        f"  degree:      min {stats['degree_min']} / "
        f"mean {stats['degree_mean']} / max {stats['degree_max']}"
    )
    print(f"  materialize: {stats['materialize_seconds']:.3f} s (cold, no cache)")
    return 0


def _command_scenario_check(args: argparse.Namespace) -> int:
    """Materialise and smoke-run every registered scenario."""
    if args.trials < 1:
        print(f"error: --trials must be positive, got {args.trials}", file=sys.stderr)
        return 2
    failures = 0
    rows = []
    for name in scenario_names():
        spec = SCENARIOS[name]
        try:
            stats = spec.materialize().run(trials=args.trials)
            rows.append(
                {"scenario": name, "mean_rounds": round(stats.mean, 1), "status": "ok"}
            )
        # Broad on purpose: the registry is open to user scenarios, and the
        # check's job is to isolate the broken entry, not die on it.
        except Exception as error:  # noqa: BLE001
            failures += 1
            rows.append(
                {
                    "scenario": name,
                    "mean_rounds": float("nan"),
                    "status": f"FAIL: {type(error).__name__}: {error}",
                }
            )
    print(format_table(rows, title=f"Scenario check ({len(rows)} scenarios, trials={args.trials})"))
    if failures:
        print(f"error: {failures} scenario(s) failed", file=sys.stderr)
        return 1
    return 0


def _resolve_campaign(args: argparse.Namespace):
    """The campaign a ``campaign run`` / ``campaign report`` invocation names."""
    if (args.name is None) == (args.file is None):
        raise ReproError("give exactly one of NAME or --file")
    if args.file is not None:
        return load_campaign_file(args.file)
    return get_campaign(args.name)


def _command_campaign(args: argparse.Namespace) -> int:
    if args.action == "list":
        rows = [
            {
                "name": name,
                "units": len(CAMPAIGNS[name].units),
                "title": CAMPAIGNS[name].title or "-",
            }
            for name in campaign_names()
        ]
        print(format_table(rows, title=f"Registered campaigns ({len(rows)})"))
        return 0
    if args.action == "show":
        campaign = get_campaign(args.name)
        if args.json:
            print(campaign.to_json())
            return 0
        print(f"{campaign.name}: {campaign.title or '-'}")
        if campaign.description:
            print(f"  {campaign.description}")
        print(f"  units ({len(campaign.units)}, in execution order):")
        for unit in campaign.execution_order():
            spec = unit.resolve()
            suffix = f" [after: {', '.join(unit.after)}]" if unit.after else ""
            print(
                f"    {unit.name}: {unit.scenario or '(inline spec)'} — "
                f"{spec.protocol} on {spec.topology}(n={spec.n}), "
                f"{spec.trials} trial(s), seed {spec.seed}{suffix}"
            )
        if campaign.artifacts:
            print(f"  artifacts ({len(campaign.artifacts)}):")
            for artifact in campaign.artifacts:
                print(f"    [{artifact.kind}] {artifact.label}")
        print("  (use --json for the exact machine-readable campaign)")
        return 0
    # run / report
    campaign = _resolve_campaign(args)
    scale = {
        key: getattr(args, key)
        for key in ("min_n", "max_n", "points_per_decade")
        if getattr(args, key) is not None
    }
    if scale:
        if campaign.name != "asymptotics":
            raise ReproError(
                "--min-n/--max-n/--points-per-decade rebuild the "
                f"'asymptotics' decade sweep and are not valid for campaign "
                f"{campaign.name!r}"
            )
        from .campaigns import asymptotics_campaign

        campaign = asymptotics_campaign(**scale)
    store_path = args.store or os.environ.get(_STORE_ENV) or _DEFAULT_STORE
    offline = args.action == "report"
    # Report-only mode must not create an empty store just to fail against it.
    store = ResultStore(store_path, create=not offline)
    result = run_campaign(
        campaign,
        store=store,
        trials=args.trials,
        seed=args.seed,
        jobs=getattr(args, "jobs", None),
        fresh=getattr(args, "fresh", False),
        offline=offline,
        progress=print if not offline else None,
    )
    print()
    print(render_text_summary(result))
    report_dir = args.report_dir or Path("reports") / campaign.name
    formats = ("md", "html") if args.format == "both" else (args.format,)
    written = write_report(result, report_dir, formats=formats)
    for kind in formats:
        print(f"report ({kind}): {written[kind]}")
    for kind, path in written.items():
        if kind not in formats:
            print(f"artifact: {path}")
    return 0


def _command_analyze(args: argparse.Namespace) -> int:
    """``analyze fit`` — exponent fit over cached workloads of a size sweep."""
    import dataclasses

    from .analysis import fit_decades

    store = _existing_store(args.store)
    samples_by_n: dict[int, list[float]] = {}
    for prefix in args.fingerprints:
        fingerprint = store.resolve_fingerprint(prefix)
        spec = store.spec(fingerprint)
        stats = store.aggregate(spec)
        # Two workloads of the same size (e.g. different seeds) pool their
        # samples — more trials per size, same fit contract.
        samples_by_n.setdefault(spec.n, []).extend(stats.samples)
        print(
            f"n={spec.n}: {fingerprint[:12]}... — {spec.trials} trial(s), "
            f"mean {stats.mean:.2f} rounds",
            file=sys.stderr,
        )
    fit = fit_decades(
        samples_by_n,
        bootstrap=args.bootstrap,
        seed=args.fit_seed,
        confidence=args.confidence,
    )
    if args.json:
        payload = dataclasses.asdict(fit)
        payload["sizes"] = sorted(samples_by_n)
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"T(n) = {fit.coefficient:.4g} * n^{fit.exponent:.4f}")
    print(fit.summary())
    return 0


def _command_store(args: argparse.Namespace) -> int:
    if args.action == "diff":
        report = diff_snapshots(load_snapshot(args.left), load_snapshot(args.right))
        for side, only in (("left", "only_left"), ("right", "only_right")):
            for fingerprint, count in sorted(report[only].items()):
                print(f"only in {side}: {fingerprint[:12]}... ({count} trial record(s))")
        for side, key in (("left", "trials_only_left"), ("right", "trials_only_right")):
            for fingerprint, seed, trial in report[key]:
                print(f"only in {side}: {fingerprint[:12]}... seed={seed} trial={trial}")
        for fingerprint, seed, trial in report["differing"]:
            print(f"DIFFERS: {fingerprint[:12]}... seed={seed} trial={trial}")
        print(
            f"{report['identical']} shared record(s) identical, "
            f"{len(report['differing'])} differing"
        )
        # Differing records for the same (fingerprint, seed, trial) signal
        # non-determinism or corruption — that, not mere asymmetry, fails.
        return 1 if report["differing"] else 0
    store = _existing_store(args.store)
    if args.action == "ls":
        fingerprints = store.fingerprints()
        if not fingerprints:
            print(f"store {store.root} is empty")
            return 0
        rows = []
        for fingerprint in fingerprints:
            # Rebuild the real spec so defaulted fields print their actual
            # values; a header written by a newer/older schema falls back to
            # placeholders rather than guessed defaults.
            try:
                spec = store.spec(fingerprint)
                workload = {
                    "protocol": spec.protocol,
                    "topology": spec.topology,
                    "n": spec.n,
                    "k": spec.k if spec.k is not None else "n",
                    "name": spec.name or "-",
                }
            except ReproError:
                workload = {"protocol": "?", "topology": "?", "n": "?", "k": "?", "name": "-"}
            keys = store.trial_keys(fingerprint)
            rows.append(
                {
                    "fingerprint": fingerprint[:12],
                    **{key: workload[key] for key in ("protocol", "topology", "n", "k")},
                    "seeds": len({seed for seed, _ in keys}),
                    "trials": len(keys),
                    "name": workload["name"],
                }
            )
        print(format_table(rows, title=f"Result store {store.root} ({len(rows)} workload(s))"))
        return 0
    if args.action == "show":
        fingerprint = store.resolve_fingerprint(args.fingerprint)
        spec_data = store.spec_dict(fingerprint)
        if args.json:
            if spec_data is None:
                # Fail like ResultStore.spec() would: piping `null` into a
                # spec consumer is worse than a loud error.
                print(
                    f"error: shard {fingerprint[:12]}... has no spec header",
                    file=sys.stderr,
                )
                return 2
            print(json.dumps(spec_data, indent=2, sort_keys=True))
            return 0
        print(f"fingerprint: {fingerprint}")
        if spec_data is not None:
            print(f"spec:        {json.dumps(spec_data, sort_keys=True)}")
        keys = store.trial_keys(fingerprint)
        by_seed: dict[int, list[int]] = {}
        for seed, trial in keys:
            by_seed.setdefault(seed, []).append(trial)
        for seed, trials in sorted(by_seed.items()):
            contiguous = max(trials) + 1 == len(trials) and min(trials) == 0
            stats_note = ""
            if contiguous:
                stats = store.aggregate(fingerprint, len(trials), seed=seed)
                stats_note = f" — {stats.summary()}"
            print(f"  seed {seed}: {len(trials)} trial(s){stats_note}")
        return 0
    if args.action == "gc":
        keep = (
            None
            if args.keep is None
            else [store.resolve_fingerprint(prefix) for prefix in args.keep]
        )
        stats = store.gc(keep=keep)
        print(
            f"gc: kept {stats['kept_shards']} shard(s) "
            f"({stats['kept_records']} record(s)), removed "
            f"{stats['removed_shards']} shard(s), dropped "
            f"{stats['dropped_records']} redundant record(s)"
        )
        return 0
    # export
    exported = store.export(args.output, fingerprints=args.fingerprint)
    print(f"exported {exported} trial record(s) to {args.output}")
    return 0


def _command_tables(args: argparse.Namespace) -> int:
    # The topology set comes from the registry (via the parser choices), not
    # a hardcoded dict: any registered builder works.
    graphs = {name: build_topology(name, args.n) for name in args.topologies}
    print(format_table(table1_rows(args.n, args.k, graphs=graphs),
                       title=f"Table 1 (analytic), n={args.n}, k={args.k}"))
    print()
    print(format_table(table2_rows(args.n, args.k),
                       title=f"Table 2 (analytic + measured graph parameters), n={args.n}, k={args.k}"))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _command_run,
        "scenario": _command_scenario,
        "campaign": _command_campaign,
        "analyze": _command_analyze,
        "store": _command_store,
        "tables": _command_tables,
    }
    try:
        code = handlers[args.command](args)
        # Flush here, so a reader that closed the pipe early (``| grep -q``)
        # raises below rather than at interpreter shutdown.
        sys.stdout.flush()
        return code
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Python flushes stdout again at exit; pointing it at devnull keeps
        # that flush from raising a second time (the recipe of the signal
        # module's documentation).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
