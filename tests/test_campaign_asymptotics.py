"""Asymptotics campaign: resume matrix, streaming units, acceptance flow.

The ``asymptotics`` campaign chains each family's decades ``after`` one
another and archives through the streaming-summary store path, so its
resume story is sharper than the generic campaign contract:

* an interrupt **mid-decade** (between units of one family's chain) resumes
  bit-identically from the same store — completed decades serve from cache,
  and the resumed statistics equal an uninterrupted cold run's exactly;
* a **mid-unit** interrupt (some trials archived, the rest not) resumes as
  a ``partial`` unit that recomputes only the missing trial indices;
* a fully-cached rerun puts **zero** records and renders a byte-identical
  report body below the timings marker;
* the CLI acceptance flow (`repro campaign run asymptotics --min-n 160
  --max-n 1600 --trials 1`) completes, reruns fully cached, and rejects the
  decade-scale flags for campaigns that are not decade sweeps.
"""

from __future__ import annotations

import pytest

import repro.campaigns.runner as campaign_runner
from repro.campaigns import (
    CampaignUnit,
    asymptotics_campaign,
    render_html,
    render_markdown,
    report_body,
    run_campaign,
)
from repro.errors import CampaignError
from repro.store import ResultStore


def small_campaign(trials: int = 2):
    """The real campaign builder at a seconds-scale size (two tiny decades).

    The expander family walks 160..1600 and the ring family — which the
    builder scales one decade lower to equalise event cost — 16..160.
    """
    return asymptotics_campaign(min_n=160, max_n=1600, trials=trials)


class TestResumeMatrix:
    def test_interrupt_mid_decade_then_resume_is_bit_identical(
        self, tmp_path, monkeypatch
    ):
        campaign = small_campaign()
        store_path = tmp_path / "store"

        # Kill the campaign while its second decade executes: exactly one
        # unit has completed and archived its summaries.
        real_run_unit = campaign_runner._run_unit
        calls = {"count": 0}

        def interrupting(unit, spec, **kwargs):
            calls["count"] += 1
            if calls["count"] == 2:
                raise KeyboardInterrupt
            return real_run_unit(unit, spec, **kwargs)

        monkeypatch.setattr(campaign_runner, "_run_unit", interrupting)
        with pytest.raises(KeyboardInterrupt):
            run_campaign(campaign, store=ResultStore(store_path))
        monkeypatch.setattr(campaign_runner, "_run_unit", real_run_unit)

        # Resume against the same store: the completed decade is cached,
        # the other three compute.
        store = ResultStore(store_path)
        resumed = run_campaign(campaign, store=store)
        statuses = sorted(o.status for o in resumed.outcomes)
        assert statuses == ["cached", "computed", "computed", "computed"]
        assert resumed.cached_trials == 2
        assert resumed.computed_trials == 6
        assert store.puts == 6

        # Bit-identity with an uninterrupted cold run: same samples, same
        # rendered body (the store path must leave no trace in the stats).
        cold = run_campaign(campaign, store=ResultStore(tmp_path / "cold"))
        for left, right in zip(resumed.outcomes, cold.outcomes):
            assert left.unit.name == right.unit.name
            assert left.stats.samples == right.stats.samples

    def test_mid_unit_interrupt_resumes_partial_trials(self, tmp_path):
        # Simulate a kill halfway through every decade's trial loop by
        # first archiving a single trial per unit (trials is an execution
        # parameter outside the workload fingerprint, so the trials=1 run
        # seeds trial 0 of the very shards the trials=2 run reads).
        store_path = tmp_path / "store"
        run_campaign(small_campaign(trials=1), store=ResultStore(store_path))

        store = ResultStore(store_path)
        resumed = run_campaign(small_campaign(trials=2), store=store)
        for outcome in resumed.outcomes:
            assert outcome.status == "partial"
            assert (outcome.cached_trials, outcome.computed_trials) == (1, 1)
        assert store.puts == 4  # one new summary per decade, nothing else

        cold = run_campaign(
            small_campaign(trials=2), store=ResultStore(tmp_path / "cold")
        )
        for left, right in zip(resumed.outcomes, cold.outcomes):
            assert left.stats.samples == right.stats.samples

    def test_fully_cached_rerun_puts_nothing_and_body_is_byte_identical(
        self, tmp_path
    ):
        campaign = small_campaign()
        store_path = tmp_path / "store"
        run_campaign(campaign, store=ResultStore(store_path))  # cold

        warm_store = ResultStore(store_path)
        warm_one = run_campaign(campaign, store=warm_store)
        warm_two = run_campaign(campaign, store=ResultStore(store_path))
        assert warm_store.puts == 0
        assert warm_one.computed_trials == warm_two.computed_trials == 0
        assert report_body(render_markdown(warm_one)) == report_body(
            render_markdown(warm_two)
        )
        assert report_body(render_html(warm_one)) == report_body(
            render_html(warm_two)
        )

        markdown = render_markdown(warm_one)
        assert "Stopping-time exponent fits" in markdown
        assert "er-logn" in markdown and "ring-of-cliques" in markdown


class TestStreamingUnits:
    def test_summary_units_carry_no_result_payloads(self, tmp_path):
        result = run_campaign(
            small_campaign(trials=1), store=ResultStore(tmp_path / "store")
        )
        for outcome in result.outcomes:
            assert outcome.unit.record == "summary"
            assert outcome.results == ()
            assert outcome.stats.samples  # the aggregate still has every trial

    def test_summary_units_honour_jobs(self, tmp_path, monkeypatch):
        real = campaign_runner._measure_indices_chunked
        seen_jobs = []

        def spy(graph, factory, config, seed, indices, jobs, engine=""):
            seen_jobs.append(jobs)
            return real(graph, factory, config, seed, indices, jobs, engine)

        monkeypatch.setattr(campaign_runner, "_measure_indices_chunked", spy)
        shards = {}
        for jobs in (2, 1):
            root = tmp_path / f"jobs{jobs}"
            run_campaign(small_campaign(trials=2), store=ResultStore(root), jobs=jobs)
            shards[jobs] = {
                path.relative_to(root): path.read_bytes()
                for path in sorted((root / "shards").rglob("*.jsonl"))
            }
        units = len(small_campaign().units)
        assert seen_jobs == [2] * units + [1] * units
        assert len(shards[1]) == units
        assert shards[2] == shards[1]

    def test_offline_run_over_an_empty_store_names_missing_trials(self, tmp_path):
        with pytest.raises(CampaignError, match="not fully cached"):
            run_campaign(
                small_campaign(trials=1),
                store=ResultStore(tmp_path / "store"),
                offline=True,
            )

    def test_record_field_round_trips_and_validates(self):
        unit = small_campaign().units[0]
        assert unit.record == "summary"
        data = unit.to_dict()
        assert data["record"] == "summary"
        assert CampaignUnit.from_dict(data) == unit

        # The default full-record mode stays out of the serialized form so
        # campaign files written before the field existed parse unchanged.
        plain = CampaignUnit(name="plain", spec=unit.spec)
        assert "record" not in plain.to_dict()
        with pytest.raises(CampaignError, match="record must be ''"):
            CampaignUnit(name="bad", spec=unit.spec, record="full")

    def test_too_small_min_n_is_refused_eagerly(self):
        # The ring family walks from min_n/10; below 2k nodes the k=8
        # message placement has no room, so the builder refuses up front
        # instead of failing decades into the run.
        with pytest.raises(CampaignError, match="raise --min-n"):
            asymptotics_campaign(min_n=80, max_n=800)


class TestAcceptanceFlow:
    """`repro campaign run asymptotics ...` — the PR's acceptance criterion."""

    def test_cli_runs_then_skips_everything(self, tmp_path, capsys):
        from repro.cli import main

        report_dir = tmp_path / "report"
        args = [
            "campaign", "run", "asymptotics",
            "--min-n", "160", "--max-n", "1600", "--trials", "1",
            "--store", str(tmp_path / "store"), "--report-dir", str(report_dir),
        ]
        assert main(args) == 0
        cold_out = capsys.readouterr().out
        assert "newly computed and saved" in cold_out

        assert main(args) == 0
        warm_out = capsys.readouterr().out
        assert "0 newly computed" in warm_out
        assert "computed (" not in warm_out  # every decade line says cached

        markdown = (report_dir / "report.md").read_text(encoding="utf-8")
        assert "Stopping-time exponent fits" in markdown
        assert "er-logn-n1600" in markdown and "ring-of-cliques-n160" in markdown
        assert (report_dir / "report.html").stat().st_size > 0

    def test_scale_flags_are_rejected_for_other_campaigns(self, tmp_path, capsys):
        from repro.cli import main

        code = main(
            [
                "campaign", "run", "table1", "--max-n", "10000",
                "--store", str(tmp_path / "store"),
                "--report-dir", str(tmp_path / "report"),
            ]
        )
        assert code == 2
        assert "not valid for campaign 'table1'" in capsys.readouterr().err
