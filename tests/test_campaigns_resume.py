"""Campaign resume semantics: interruption, incremental re-execution, reports.

The campaign contract (docs/campaigns.md):

* a campaign interrupted mid-DAG resumes from its store — completed units
  are served from cache, only the missing trials execute;
* the report marks every unit ``cached`` / ``computed`` / ``partial``;
* a fully-cached re-run computes nothing (``store.puts == 0``) and renders a
  byte-identical report body (everything above the timings marker);
* the acceptance flow: ``repro campaign run table1 --trials 2`` executes
  through the store, skips all units on immediate rerun, and emits Markdown
  + HTML reports carrying the Table-1 rows and the cache statistics.
"""

from __future__ import annotations

import pytest

import repro.campaigns.runner as campaign_runner
from repro.campaigns import (
    ArtifactSpec,
    CampaignSpec,
    CampaignUnit,
    report_body,
    render_html,
    render_markdown,
    run_campaign,
    write_report,
)
from repro.scenarios import ScenarioSpec
from repro.store import ResultStore


def three_unit_campaign() -> CampaignSpec:
    units = tuple(
        CampaignUnit(
            name=topology,
            spec=ScenarioSpec(topology=topology, n=8, k=4, trials=3, seed=5),
            after=() if index == 0 else (("ring", "line", "grid")[index - 1],),
        )
        for index, topology in enumerate(("ring", "line", "grid"))
    )
    return CampaignSpec(
        name="resume-test",
        title="Resume test campaign",
        units=units,
        artifacts=(ArtifactSpec(kind="measured-table", title="Measured"),),
    )


class TestInterruptedCampaignResumes:
    def test_interrupt_mid_dag_then_resume_runs_only_missing_units(
        self, tmp_path, monkeypatch
    ):
        campaign = three_unit_campaign()
        store_path = tmp_path / "store"

        # Interrupt the campaign while its second unit executes: the unit
        # runner raises after the first unit has completed and archived.
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

        # Resume against the same store: the completed unit is served from
        # cache, only the interrupted remainder simulates.
        store = ResultStore(store_path)
        result = run_campaign(campaign, store=store)
        statuses = {o.unit.name: o.status for o in result.outcomes}
        assert statuses == {"ring": "cached", "line": "computed", "grid": "computed"}
        assert result.cached_trials == 3
        assert result.computed_trials == 6
        assert store.puts == 6

    def test_interrupt_mid_unit_resumes_partially(self, tmp_path):
        campaign = three_unit_campaign()
        store_path = tmp_path / "store"
        # Simulate a mid-unit kill: the store holds only trial 0 of unit 1
        # (the batch append was cut short).
        spec = campaign.unit("ring").resolve()
        seed_store = ResultStore(store_path)
        (result,) = spec.materialize().measure(trials=1, store=seed_store)
        assert seed_store.puts == 1

        store = ResultStore(store_path)
        resumed = run_campaign(campaign, store=store)
        ring = resumed.outcome("ring")
        assert ring.status == "partial"
        assert (ring.cached_trials, ring.computed_trials) == (1, 2)
        # Resumed statistics are bit-identical to an uninterrupted cold run.
        cold = run_campaign(campaign, store=ResultStore(tmp_path / "cold"))
        for left, right in zip(resumed.outcomes, cold.outcomes):
            assert left.stats.samples == right.stats.samples

    def test_report_marks_cached_vs_computed_units(self, tmp_path):
        campaign = three_unit_campaign()
        store_path = tmp_path / "store"
        # Pre-populate only the first unit, then run the whole campaign.
        first = CampaignSpec(
            name="first-only",
            units=(campaign.units[0],),
        )
        run_campaign(first, store=ResultStore(store_path))
        result = run_campaign(campaign, store=ResultStore(store_path))
        markdown = render_markdown(result)
        body = report_body(markdown)
        assert "| ring |" in body and "| cached |" in body
        assert "| line |" in body and "| computed |" in body


class TestFullyCachedRerunIsByteIdentical:
    def test_markdown_and_html_bodies_stable_across_cached_reruns(self, tmp_path):
        campaign = three_unit_campaign()
        store_path = tmp_path / "store"
        run_campaign(campaign, store=ResultStore(store_path))  # cold
        warm_one = run_campaign(campaign, store=ResultStore(store_path))
        warm_two = run_campaign(campaign, store=ResultStore(store_path))
        assert warm_one.computed_trials == warm_two.computed_trials == 0
        assert report_body(render_markdown(warm_one)) == report_body(
            render_markdown(warm_two)
        )
        assert report_body(render_html(warm_one)) == report_body(
            render_html(warm_two)
        )

    def test_written_side_files_are_byte_identical(self, tmp_path):
        campaign = three_unit_campaign().replace(
            artifacts=(ArtifactSpec(kind="csv", title="Trials"),)
        )
        store_path = tmp_path / "store"
        run_campaign(campaign, store=ResultStore(store_path))
        warm_one = run_campaign(campaign, store=ResultStore(store_path))
        warm_two = run_campaign(campaign, store=ResultStore(store_path))
        first = write_report(warm_one, tmp_path / "r1")
        second = write_report(warm_two, tmp_path / "r2")
        assert first["trials"].read_bytes() == second["trials"].read_bytes()


class TestAcceptanceFlow:
    """`repro campaign run table1 --trials 2` — the PR's acceptance criterion."""

    def test_table1_smoke_runs_then_skips_everything(self, tmp_path, capsys):
        from repro.cli import main

        store = str(tmp_path / "store")
        report_dir = tmp_path / "report"
        args = [
            "campaign", "run", "table1", "--trials", "2",
            "--store", store, "--report-dir", str(report_dir),
        ]
        assert main(args) == 0
        cold_out = capsys.readouterr().out
        assert "newly computed and saved" in cold_out

        # Immediate rerun: every unit skipped, puts == 0.
        assert main(args) == 0
        warm_out = capsys.readouterr().out
        assert "0 newly computed" in warm_out
        assert "computed (" not in warm_out  # every unit line says cached

        markdown = (report_dir / "report.md").read_text(encoding="utf-8")
        html_text = (report_dir / "report.html").read_text(encoding="utf-8")
        # Table-1 rows (analytic protocol column + measured unit rows).
        assert "Uniform AG" in markdown and "TAG + B_RR" in markdown
        assert "uniform-barbell" in markdown
        # Cache statistics.
        assert "## Cache statistics" in markdown
        assert "served from cache: 26 trial(s)" in markdown
        assert "Uniform AG" in html_text
        assert "Cache statistics" in html_text
