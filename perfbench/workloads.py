"""The three benchmark workloads, their unit of work and their oracles.

Every workload is driven only through the public API the CLI uses
(``ScenarioSpec.materialize_preferred``, ``MaterializedScenario.measure``,
``run_campaign``, ``ResultStore``, ``render_markdown``/``render_html``).

A workload repeats one *unit*, made of two operations:

* **cold** — compute the unit from nothing into a fresh throwaway store:
  one trial (``sparse-event``), one 32-trial plan (``dense-batch``) or the
  whole ``full-paper`` campaign (``paper-campaign``);
* **cached** — serve the same unit again from a freshly opened store, read
  its statistics back and render them (for the campaign: both report
  formats).  Its signature must equal the cold one's.

Why these workloads: ``sparse-event`` spends nearly all its time in the
event engine's per-delivery loop (small degree, GF(2), packed rows);
``dense-batch`` is the other side of the engine crossover, where the
lockstep batch engine and the dense GF(16) eliminator do the work; and
``paper-campaign`` is the user's one-command reproduction, the only one
whose cost is many small runs plus store writes, store reads and reports.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.campaigns import get_campaign, run_campaign
from repro.campaigns.report import render_html, render_markdown, report_body
from repro.core.config import TimeModel
from repro.scenarios import ScenarioSpec, get_scenario
from repro.scenarios.spec import default_scenario_config
from repro.store import ResultStore

DEFAULT_SEED = 1


def unit_seed(seed: int, index: int) -> int:
    """Root seed of unit ``index``: every unit of a run is a fresh input."""
    return 1000 * seed + index


def digest(value: Any) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def trial_signature(result: Any) -> list:
    """What must repeat exactly for one trial at a given seed."""
    return [
        result.rounds,
        result.timeslots,
        result.messages_sent,
        result.helpful_messages,
        digest(sorted(result.completion_rounds.items())),
    ]


def check_trial(result: Any, scenario: Any, protocol: str) -> list[str]:
    """Seed-independent checks of one trial; returns what failed.

    Every trial completes and every node has a completion round.  The rank
    ledger: each helpful coded delivery raises one node's rank by one, so
    uniform algebraic gossip sends exactly ``n·k − Σ initial ranks`` helpful
    messages; TAG adds its tree messages on top, and a standalone spanning
    tree broadcast informs each of the other ``n − 1`` nodes at least once.
    """
    problems = []
    if not result.completed:
        problems.append("trial did not complete")
    rounds = result.completion_rounds
    if len(rounds) != scenario.n or any(
        not 0 <= value <= result.rounds for value in rounds.values()
    ):
        problems.append(f"{len(rounds)}/{scenario.n} nodes have a valid completion round")
    initial = sum(len(set(messages)) for messages in scenario.placement.values())
    needed = scenario.n * scenario.k - initial
    helpful = result.helpful_messages
    if protocol == "uniform" and helpful != needed:
        problems.append(f"rank ledger: {helpful} helpful != n*k - initial = {needed}")
    elif protocol == "tag" and helpful < needed:
        problems.append(f"rank ledger: {helpful} helpful < n*k - initial = {needed}")
    elif protocol == "spanning_tree" and helpful < scenario.n - 1:
        problems.append(f"broadcast ledger: {helpful} helpful < n - 1")
    return problems


@dataclass
class Outcome:
    """One operation (a cold unit or a cached rerun) and what it showed."""

    seconds: float
    trials: int = 0
    timeslots: int = 0
    signature: str = ""
    report: str = ""
    problems: list[str] = field(default_factory=list)


class ScenarioWorkload:
    """A single-scenario workload: one unit is one ``measure`` plan."""

    name = ""
    seeded = True

    def base_spec(self, seed: int) -> ScenarioSpec:
        raise NotImplementedError

    def setup(self, seed: int) -> Any:
        """Cold materialisation: what ``setup_s`` times."""
        return self.base_spec(seed).materialize_preferred()

    def cold(self, scenario: Any, index: int, root: Path, tracer: Any) -> Outcome:
        spec = scenario.spec
        store = ResultStore(root)
        started = time.perf_counter()
        results = scenario.measure(
            trials=spec.trials, seed=unit_seed(spec.seed, index), store=store
        )
        seconds = time.perf_counter() - started
        problems = []
        for result in results:
            problems += check_trial(result, scenario, spec.protocol)
        if store.puts != len(results) or len(results) != spec.trials:
            problems.append(f"cold run stored {store.puts}/{spec.trials} trials")
        return Outcome(
            seconds=seconds,
            trials=len(results),
            timeslots=sum(result.timeslots for result in results),
            signature=digest([trial_signature(result) for result in results]),
            problems=problems,
        )

    def cached(self, scenario: Any, index: int, root: Path, tracer: Any) -> Outcome:
        spec = scenario.spec
        trial_seed = unit_seed(spec.seed, index)
        started = time.perf_counter()
        store = ResultStore(root)
        results = scenario.measure(trials=spec.trials, seed=trial_seed, store=store)
        stats = store.aggregate(spec, spec.trials, seed=trial_seed)
        with tracer.span("report.render"):
            text = stats.summary()
        seconds = time.perf_counter() - started
        problems = []
        if store.puts or store.hits != spec.trials:
            problems.append(
                f"cached rerun: {store.hits} hits, {store.puts} puts "
                f"(want {spec.trials} hits, 0 puts)"
            )
        return Outcome(
            seconds=seconds,
            signature=digest([trial_signature(result) for result in results]),
            report=digest(text),
            problems=problems,
        )


class SparseEvent(ScenarioWorkload):
    """Uniform AG on connected G(n, 2 log n / n), n=10^4, k=8, GF(2), async.

    The registry's ``event/er-logn`` scaled to n=10^4: event engine, gf2bit
    backend, graph-free CSR pipeline; one trial per unit.  The graph is
    drawn from the workload seed too.
    """

    name = "sparse-event"

    def base_spec(self, seed: int) -> ScenarioSpec:
        return get_scenario("event/er-logn").replace(
            name="", n=10_000, trials=1, seed=seed, topology_params={"seed": seed}
        )


class DenseBatch(ScenarioWorkload):
    """Uniform AG on the complete graph, n=128, k=32, GF(16), synchronous.

    One unit is one 32-trial plan, engine and backend left to
    auto-selection (the lockstep batch engine, dense numpy elimination).
    The slab width is part of the input: per-trial cost falls as it grows.
    """

    name = "dense-batch"

    def base_spec(self, seed: int) -> ScenarioSpec:
        return ScenarioSpec(
            topology="complete",
            n=128,
            k=32,
            config=default_scenario_config(
                time_model=TimeModel.SYNCHRONOUS, field_size=16
            ),
            trials=32,
            seed=seed,
        )


class PaperCampaign:
    """``run_campaign(get_campaign("full-paper"))`` with its own plan and seeds.

    This is exactly what ``repro campaign run full-paper`` computes, so the
    workload seed does not change its inputs: under a seed override the
    cached half, which is mostly single-trial rank-evolution replays,
    simulates between 896 and 1376 rounds·n across seeds 1–10 (±20%), more
    than the benchmark's bound.  Its reference checks therefore apply at
    every seed.  The store lives at a fixed relative path because the report
    body names it.
    """

    name = "paper-campaign"
    seeded = False

    def __init__(self) -> None:
        self.campaign = get_campaign("full-paper")

    def setup(self, seed: int) -> Any:
        specs = self.campaign.resolved_specs()
        return {name: spec.materialize_preferred() for name, spec in specs.items()}

    def cold(self, scenarios: Any, index: int, root: Path, tracer: Any) -> Outcome:
        store = ResultStore(root)
        started = time.perf_counter()
        result = run_campaign(self.campaign, store=store)
        seconds = time.perf_counter() - started
        problems = []
        for outcome in result.outcomes:
            scenario = scenarios[outcome.unit.name]
            for trial in outcome.results:
                problems += [
                    f"{outcome.unit.name}: {problem}"
                    for problem in check_trial(trial, scenario, outcome.spec.protocol)
                ]
        if result.store_puts != result.computed_trials or result.computed_trials == 0:
            problems.append(
                f"cold campaign: {result.computed_trials} computed, "
                f"{result.store_puts} puts"
            )
        return Outcome(
            seconds=seconds,
            trials=result.computed_trials,
            timeslots=sum(
                trial.timeslots for outcome in result.outcomes for trial in outcome.results
            ),
            signature=campaign_signature(result),
            problems=problems,
        )

    def cached(self, scenarios: Any, index: int, root: Path, tracer: Any) -> Outcome:
        started = time.perf_counter()
        store = ResultStore(root)
        result = run_campaign(self.campaign, store=store)
        with tracer.span("report.render"):
            markdown = render_markdown(result)
            html = render_html(result)
        readback = [store.aggregate(outcome.spec) for outcome in result.outcomes]
        seconds = time.perf_counter() - started
        problems = []
        if result.computed_trials or result.store_puts:
            problems.append(
                f"cached campaign computed {result.computed_trials} trials and "
                f"put {result.store_puts} records (want 0 and 0)"
            )
        if readback != [outcome.stats for outcome in result.outcomes]:
            problems.append("store.aggregate disagrees with the campaign statistics")
        return Outcome(
            seconds=seconds,
            signature=campaign_signature(result),
            report=digest([report_body(markdown), report_body(html)]),
            problems=problems,
        )


def campaign_signature(result: Any) -> str:
    """Every unit's fingerprint and per-trial signatures, as one digest."""
    return digest([
        [outcome.unit.name, outcome.fingerprint,
         [trial_signature(trial) for trial in outcome.results]]
        for outcome in result.outcomes
    ])


WORKLOADS = {
    workload.name: workload
    for workload in (SparseEvent, DenseBatch, PaperCampaign)
}


def fresh_dir(path: Path) -> Path:
    """A path with nothing at it, for a throwaway store to be created at."""
    shutil.rmtree(path, ignore_errors=True)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path
