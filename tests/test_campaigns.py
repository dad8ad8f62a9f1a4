"""Tests for the declarative campaign layer (spec, registry, runner, report)."""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.campaigns import (
    ARTIFACT_KINDS,
    CAMPAIGNS,
    ArtifactSpec,
    CampaignSpec,
    CampaignUnit,
    campaign_names,
    get_campaign,
    load_campaign_file,
    register_campaign,
    render_html,
    render_markdown,
    render_text_summary,
    report_body,
    run_campaign,
    write_report,
)
from repro.campaigns.report import TIMINGS_MARKER, format_markdown_table
from repro.errors import AnalysisError, CampaignError
from repro.scenarios import ScenarioSpec
from repro.store import ResultStore


def tiny_spec(topology: str = "ring", *, n: int = 8, seed: int = 3) -> ScenarioSpec:
    return ScenarioSpec(topology=topology, n=n, k=4, trials=2, seed=seed)


def tiny_campaign(**overrides) -> CampaignSpec:
    defaults = dict(
        name="tiny",
        title="Tiny test campaign",
        units=(
            CampaignUnit(name="ring", spec=tiny_spec("ring")),
            CampaignUnit(name="line", spec=tiny_spec("line"), after=("ring",)),
        ),
        artifacts=(
            ArtifactSpec(kind="measured-table", title="Measured"),
            ArtifactSpec(kind="csv", title="Trials"),
        ),
    )
    defaults.update(overrides)
    return CampaignSpec(**defaults)


class TestCampaignSpec:
    def test_json_round_trip(self):
        campaign = tiny_campaign()
        assert CampaignSpec.from_json(campaign.to_json()) == campaign

    def test_builtin_campaigns_round_trip(self):
        for name in campaign_names():
            campaign = CAMPAIGNS[name]
            assert CampaignSpec.from_dict(campaign.to_dict()) == campaign

    def test_unit_needs_exactly_one_workload_source(self):
        with pytest.raises(CampaignError, match="exactly one"):
            CampaignUnit(name="u")
        with pytest.raises(CampaignError, match="exactly one"):
            CampaignUnit(name="u", scenario="uniform/line", spec=tiny_spec())

    def test_campaign_without_units_rejected(self):
        with pytest.raises(CampaignError, match="declares no units"):
            tiny_campaign(units=(), artifacts=())

    def test_duplicate_unit_names_rejected(self):
        with pytest.raises(CampaignError, match="duplicate"):
            tiny_campaign(
                units=(
                    CampaignUnit(name="ring", spec=tiny_spec()),
                    CampaignUnit(name="ring", spec=tiny_spec("line")),
                ),
                artifacts=(),
            )

    def test_unknown_dependency_rejected(self):
        with pytest.raises(CampaignError, match="unknown unit"):
            tiny_campaign(
                units=(CampaignUnit(name="a", spec=tiny_spec(), after=("ghost",)),),
                artifacts=(),
            )

    def test_unknown_scenario_name_fails_at_construction_with_suggestion(self):
        with pytest.raises(CampaignError, match="did you mean"):
            tiny_campaign(
                units=(CampaignUnit(name="a", scenario="uniform/lin"),),
                artifacts=(),
            )

    def test_artifact_referencing_unknown_unit_rejected(self):
        with pytest.raises(CampaignError, match="references unknown"):
            tiny_campaign(
                artifacts=(ArtifactSpec(kind="csv", units=("ghost",)),),
            )

    def test_unknown_artifact_kind_rejected(self):
        with pytest.raises(CampaignError, match="unknown artifact kind"):
            ArtifactSpec(kind="pie-chart")
        assert "measured-table" in ARTIFACT_KINDS

    def test_colliding_csv_slugs_rejected_at_load_time(self):
        # Two csv-producing artifacts whose labels slug identically would
        # fight over one <slug>.csv side file; that must fail when the
        # campaign is built, not after it has fully executed.
        with pytest.raises(CampaignError, match="distinct titles"):
            tiny_campaign(
                artifacts=(
                    ArtifactSpec(kind="csv", title="Per-trial times"),
                    ArtifactSpec(kind="rank-evolution", title="per trial times"),
                ),
            )

    def test_dependency_cycle_detected(self):
        with pytest.raises(CampaignError, match="cycle"):
            tiny_campaign(
                units=(
                    CampaignUnit(name="a", spec=tiny_spec(), after=("b",)),
                    CampaignUnit(name="b", spec=tiny_spec("line"), after=("a",)),
                ),
                artifacts=(),
            )

    def test_execution_order_respects_after_edges(self):
        campaign = tiny_campaign(
            units=(
                CampaignUnit(name="last", spec=tiny_spec(), after=("mid",)),
                CampaignUnit(name="first", spec=tiny_spec("line")),
                CampaignUnit(name="mid", spec=tiny_spec("grid"), after=("first",)),
            ),
            artifacts=(),
        )
        assert [u.name for u in campaign.execution_order()] == ["first", "mid", "last"]

    def test_resolve_precedence_campaign_beats_unit_beats_spec(self):
        unit = CampaignUnit(name="u", spec=tiny_spec(), trials=7, seed=11)
        assert unit.resolve().trials == 7
        assert unit.resolve().seed == 11
        assert unit.resolve(trials=2, seed=5).trials == 2
        assert unit.resolve(trials=2, seed=5).seed == 5
        bare = CampaignUnit(name="u", spec=tiny_spec())
        assert bare.resolve().trials == tiny_spec().trials


class TestCampaignFiles:
    def test_toml_file_round_trip(self, tmp_path):
        path = tmp_path / "campaign.toml"
        path.write_text(
            """
name = "from-toml"
title = "TOML campaign"

[[units]]
name = "registered"
scenario = "uniform/line"
trials = 2

[[units]]
name = "inline"
after = ["registered"]
[units.spec]
topology = "ring"
n = 8
k = 4

[[artifacts]]
kind = "measured-table"
title = "Rows"
units = ["registered", "inline"]
""",
            encoding="utf-8",
        )
        campaign = load_campaign_file(path)
        assert campaign.name == "from-toml"
        assert campaign.unit("registered").resolve().trials == 2
        assert [u.name for u in campaign.execution_order()] == ["registered", "inline"]

    def test_json_file_accepted(self, tmp_path):
        campaign = tiny_campaign()
        path = tmp_path / "campaign.json"
        path.write_text(campaign.to_json(), encoding="utf-8")
        assert load_campaign_file(path) == campaign

    def test_bad_files_raise_campaign_error(self, tmp_path):
        missing = tmp_path / "nope.toml"
        with pytest.raises(CampaignError, match="cannot read"):
            load_campaign_file(missing)
        bad = tmp_path / "bad.toml"
        bad.write_text("name = [unclosed", encoding="utf-8")
        with pytest.raises(CampaignError, match="not valid TOML"):
            load_campaign_file(bad)
        bad_json = tmp_path / "bad.json"
        bad_json.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(CampaignError, match="top level"):
            load_campaign_file(bad_json)


class TestRegistry:
    def test_builtins_present(self):
        assert {
            "table1", "table2", "theorem2", "theorem5", "bounds", "full-paper"
        } <= set(campaign_names())

    def test_unknown_campaign_suggests(self):
        with pytest.raises(CampaignError, match="did you mean 'table1'"):
            get_campaign("tabel1")

    def test_register_rejects_duplicates(self):
        campaign = tiny_campaign(name="tiny-registered")
        register_campaign(campaign)
        try:
            with pytest.raises(CampaignError, match="already registered"):
                register_campaign(campaign)
            register_campaign(campaign, overwrite=True)
        finally:
            CAMPAIGNS.pop("tiny-registered", None)

    def test_full_paper_csv_artifacts_write_distinct_files(self):
        # Regression: table2 and theorem2 both declare a csv artifact with
        # the same title; the full-paper union must keep their side-file
        # slugs distinct (titles are prefixed by source campaign) or
        # write_report would refuse to emit the flagship report.
        from repro.campaigns.spec import artifact_slug

        full = get_campaign("full-paper")
        slugs = [
            artifact_slug(artifact.label)
            for artifact in full.artifacts
            if artifact.kind in ("csv", "rank-evolution")
        ]
        assert len(slugs) == len(set(slugs))
        assert len(slugs) >= 3

    def test_full_paper_covers_all_parts(self):
        full = get_campaign("full-paper")
        prefixes = {unit.name.split("/", 1)[0] for unit in full.units}
        assert prefixes == {"table1", "table2", "theorem2", "theorem5"}
        # Every part's units appear, renamed but workload-identical.
        for part_name in sorted(prefixes):
            part = get_campaign(part_name)
            for unit in part.units:
                combined = full.unit(f"{part_name}/{unit.name}")
                assert combined.resolve() == unit.resolve()


#: Former experiment id -> the bounds its measured-table reports.
BOUNDS_TABLES = {
    "E1-uniform-ag": ("theorem1", "lower"),
    "E2-constant-degree": ("theorem3", "lower"),
    "E3-tag": ("theorem4", "lower"),
    "E4-tag-omega-n": ("tag_brr", "lower"),
    "E5-tag-is": ("lower",),
    "E8-barbell": ("lower",),
}


class TestBoundsCampaign:
    @pytest.fixture(scope="class")
    def result(self, tmp_path_factory):
        store = ResultStore(tmp_path_factory.mktemp("bounds-store"))
        return run_campaign(get_campaign("bounds"), store=store, trials=1)

    def test_one_table_per_former_experiment(self):
        bounds = get_campaign("bounds")
        assert len(bounds.units) == 17
        tables = {
            artifact.label.split(" ", 1)[0]: dict(artifact.params)["bounds"]
            for artifact in bounds.artifacts
        }
        assert tables == BOUNDS_TABLES
        assert all(artifact.kind == "measured-table" for artifact in bounds.artifacts)
        # E4's n = 16 point is the E3 unit, not a second copy of it.
        [e4] = [a for a in bounds.artifacts if a.label.startswith("E4-")]
        assert e4.units == ("brr-barbell-n8", "brr-barbell", "brr-barbell-n24")

    def test_not_part_of_full_paper(self):
        prefixes = {unit.name.split("/", 1)[0] for unit in get_campaign("full-paper").units}
        assert "bounds" not in prefixes

    def test_bound_cells_match_the_materialised_spec(self, result):
        outcomes = {outcome.unit.name: outcome for outcome in result.outcomes}
        checked = 0
        for artifact in result.artifacts:
            names = dict(artifact.artifact.params)["bounds"]
            assert len(artifact.rows) == len(artifact.artifact.units)
            for row in artifact.rows:
                outcome = outcomes[row["unit"]]
                bounds = outcome.spec.materialize().bounds
                for name in names:
                    assert row[name] == round(bounds[name], 2)
                    assert row[f"ratio({name})"] == round(
                        outcome.stats.whp / bounds[name], 3
                    )
                    checked += 1
        assert checked == 2 * (4 + 4 + 3 + 3) + 2 + 2

    def test_unit_without_the_requested_bound_is_refused(self, tmp_path):
        campaign = CampaignSpec(
            name="no-theorem3",
            units=(CampaignUnit(name="complete", scenario="uniform/complete", trials=1),),
            artifacts=(
                ArtifactSpec(
                    kind="measured-table", params={"bounds": ["theorem3"]}
                ),
            ),
        )
        # Δ = 15 > 8 on the complete graph: Theorem 3 does not apply.
        with pytest.raises(CampaignError, match=r"'complete'.*theorem3.*theorem1"):
            run_campaign(campaign, store=ResultStore(tmp_path))

    def test_bounds_param_must_be_a_list(self, tmp_path):
        campaign = tiny_campaign(
            artifacts=(
                ArtifactSpec(kind="measured-table", params={"bounds": "theorem1"}),
            )
        )
        with pytest.raises(CampaignError, match="list of bound names"):
            run_campaign(campaign, store=ResultStore(tmp_path))

    def test_table_without_bounds_is_unchanged(self, tmp_path):
        result = run_campaign(tiny_campaign(), store=ResultStore(tmp_path))
        assert list(result.artifacts[0].rows[0]) == [
            "unit", "scenario", "topology", "n", "k", "trials",
            "mean_rounds", "p95_rounds",
        ]


class TestRunner:
    def test_requires_store(self):
        with pytest.raises(CampaignError, match="requires a ResultStore"):
            run_campaign(tiny_campaign(), store=None)

    def test_cold_run_computes_everything(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        result = run_campaign(tiny_campaign(), store=store)
        assert result.computed_trials == result.total_trials == 4
        assert result.cached_trials == 0
        assert all(outcome.status == "computed" for outcome in result.outcomes)
        assert store.puts == 4

    def test_rerun_is_fully_cached(self, tmp_path):
        campaign = tiny_campaign()
        run_campaign(campaign, store=ResultStore(tmp_path / "store"))
        store = ResultStore(tmp_path / "store")
        result = run_campaign(campaign, store=store)
        assert store.puts == 0
        assert result.computed_trials == 0
        assert all(outcome.status == "cached" for outcome in result.outcomes)

    def test_campaign_trials_override_changes_plan(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        result = run_campaign(tiny_campaign(), store=store, trials=1)
        assert result.total_trials == 2  # 1 per unit
        assert all(outcome.trials == 1 for outcome in result.outcomes)

    def test_results_match_direct_scenario_run(self, tmp_path):
        # The campaign layer adds orchestration, not physics: a unit's stats
        # equal running its spec directly.
        spec = tiny_spec()
        direct = spec.materialize().run()
        result = run_campaign(
            tiny_campaign(
                units=(CampaignUnit(name="only", spec=spec),), artifacts=()
            ),
            store=ResultStore(tmp_path / "store"),
        )
        assert result.outcome("only").stats.samples == direct.samples

    def test_offline_mode_requires_full_cache(self, tmp_path):
        campaign = tiny_campaign()
        store = ResultStore(tmp_path / "store")
        with pytest.raises(CampaignError, match="not fully cached"):
            run_campaign(campaign, store=store, offline=True)
        run_campaign(campaign, store=store)
        offline_store = ResultStore(tmp_path / "store")
        result = run_campaign(campaign, store=offline_store, offline=True)
        assert offline_store.puts == 0
        assert result.computed_trials == 0

    def test_fresh_recomputes_and_verifies(self, tmp_path):
        campaign = tiny_campaign()
        run_campaign(campaign, store=ResultStore(tmp_path / "store"))
        store = ResultStore(tmp_path / "store")
        result = run_campaign(campaign, store=store, fresh=True)
        # Everything recomputed; nothing newly archived (payloads identical).
        assert result.computed_trials == result.total_trials
        assert store.puts == 0

    def test_shared_pool_multiprocess_run_matches_in_process(self, tmp_path):
        campaign = tiny_campaign()
        in_process = run_campaign(campaign, store=ResultStore(tmp_path / "a"))
        pooled = run_campaign(campaign, store=ResultStore(tmp_path / "b"), jobs=2)
        for left, right in zip(in_process.outcomes, pooled.outcomes):
            assert left.stats.samples == right.stats.samples

    def test_artifacts_evaluated(self, tmp_path):
        result = run_campaign(
            tiny_campaign(), store=ResultStore(tmp_path / "store")
        )
        measured, csv = result.artifacts
        assert [row["unit"] for row in measured.rows] == ["ring", "line"]
        assert all(row["trials"] == 2 for row in measured.rows)
        assert csv.csv.startswith("unit,fingerprint,seed,trial,rounds")
        assert csv.csv.count("\n") == 1 + 4  # header + one line per trial

    def test_rank_evolution_rejects_tree_protocols(self, tmp_path):
        campaign = tiny_campaign(
            units=(
                CampaignUnit(
                    name="tree",
                    spec=ScenarioSpec(
                        topology="ring",
                        n=8,
                        protocol="spanning_tree",
                        trials=1,
                        seed=0,
                    ),
                ),
            ),
            artifacts=(ArtifactSpec(kind="rank-evolution", units=("tree",)),),
        )
        with pytest.raises(CampaignError, match="reports no decoder ranks"):
            run_campaign(campaign, store=ResultStore(tmp_path / "store"))

    def test_rank_evolution_curves_recorded(self, tmp_path):
        campaign = tiny_campaign(
            artifacts=(ArtifactSpec(kind="rank-evolution", units=("ring",)),),
        )
        result = run_campaign(campaign, store=ResultStore(tmp_path / "store"))
        (artifact,) = result.artifacts
        ((name, points),) = artifact.curves
        assert name == "ring"
        # The curve ends with every node at full rank k.
        assert points[-1][1] == tiny_spec().k
        assert artifact.csv.startswith("unit,round,min_rank")


class TestFullPaperRunsOnlyOnTheEventEngine:
    def test_cold_and_cached_runs_never_call_the_scalar_engine(self, tmp_path, monkeypatch):
        """``full-paper`` at one trial per unit, cold and then cached, with
        ``GossipEngine.run`` patched to raise: both report bodies equal an
        unpatched run's (the trials and the rank-evolution replays all run
        on the event engine)."""
        from repro.gossip import GossipEngine

        campaign = get_campaign("full-paper")
        store_path = tmp_path / "store"

        def cold_and_cached_bodies() -> list[tuple[str, str]]:
            bodies = []
            for _ in ("cold", "cached"):
                result = run_campaign(campaign, store=ResultStore(store_path), trials=1)
                bodies.append((
                    report_body(render_markdown(result)),
                    report_body(render_html(result)),
                ))
            return bodies

        reference = cold_and_cached_bodies()

        def refuse(engine):
            raise AssertionError("the scalar engine ran")

        monkeypatch.setattr(GossipEngine, "run", refuse)
        shutil.rmtree(store_path)
        assert cold_and_cached_bodies() == reference


class TestReport:
    def test_markdown_table(self):
        rows = [{"x": 1, "y": 2}, {"x": 3, "y": 4}]
        text = format_markdown_table(rows)
        assert text.splitlines()[0] == "| x | y |"
        assert "| 3 | 4 |" in text
        with pytest.raises(AnalysisError):
            format_markdown_table([])

    def run_tiny(self, tmp_path) -> tuple:
        store = ResultStore(tmp_path / "store")
        result = run_campaign(tiny_campaign(), store=store)
        return store, result

    def test_markdown_report_structure(self, tmp_path):
        _, result = self.run_tiny(tmp_path)
        markdown = render_markdown(result)
        assert markdown.startswith("# Campaign report: Tiny test campaign")
        assert "## Units" in markdown
        assert "## Cache statistics" in markdown
        assert "## Campaign spec" in markdown
        assert TIMINGS_MARKER in markdown
        # The embedded spec is the exact campaign document.
        embedded = markdown.split("```json\n", 1)[1].split("\n```", 1)[0]
        assert CampaignSpec.from_json(embedded) == result.campaign

    def test_regenerate_hint_matches_campaign_provenance(self, tmp_path):
        # An unregistered (file-loaded) campaign cannot be regenerated by
        # name; its report must point at the embedded spec instead.
        _, result = self.run_tiny(tmp_path)
        markdown = render_markdown(result)
        assert "campaign run tiny" not in markdown
        assert "--file" in markdown.split("## Units")[0]
        # A registered campaign regenerates by name.
        store = ResultStore(tmp_path / "store2")
        registered = run_campaign(
            __import__("repro.campaigns", fromlist=["get_campaign"]).get_campaign(
                "theorem2"
            ),
            store=store,
            trials=1,
        )
        assert "campaign run theorem2" in render_markdown(registered)

    def test_body_excludes_timings(self, tmp_path):
        _, result = self.run_tiny(tmp_path)
        body = report_body(render_markdown(result))
        assert "Execution timings" not in body
        assert "## Units" in body

    def test_html_report_is_standalone(self, tmp_path):
        _, result = self.run_tiny(tmp_path)
        html_text = render_html(result)
        assert html_text.startswith("<!DOCTYPE html>")
        assert "<table>" in html_text
        assert TIMINGS_MARKER in html_text

    def test_html_rank_curves_render_svg(self, tmp_path):
        campaign = tiny_campaign(
            artifacts=(ArtifactSpec(kind="rank-evolution", units=("ring",)),),
        )
        result = run_campaign(campaign, store=ResultStore(tmp_path / "store"))
        assert "<svg" in render_html(result)

    def test_write_report_emits_files(self, tmp_path):
        _, result = self.run_tiny(tmp_path)
        written = write_report(result, tmp_path / "report")
        assert written["md"].read_text(encoding="utf-8").startswith("# Campaign")
        assert written["html"].exists()
        csv_paths = [p for key, p in written.items() if key not in ("md", "html")]
        assert len(csv_paths) == 1 and csv_paths[0].suffix == ".csv"

    def test_write_report_rejects_unknown_format(self, tmp_path):
        _, result = self.run_tiny(tmp_path)
        with pytest.raises(CampaignError, match="unknown report format"):
            write_report(result, tmp_path / "report", formats=("pdf",))

    def test_text_summary_names_cache_split(self, tmp_path):
        _, result = self.run_tiny(tmp_path)
        summary = render_text_summary(result)
        assert "0 trial(s) read from cache, 4 newly computed" in summary


class TestCampaignCli:
    def test_list_and_show(self, capsys):
        from repro.cli import main

        assert main(["campaign", "list"]) == 0
        out = capsys.readouterr().out
        assert "full-paper" in out and "table1" in out
        assert main(["campaign", "show", "theorem2"]) == 0
        out = capsys.readouterr().out
        assert "units (3" in out
        assert main(["campaign", "show", "table2", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["name"] == "table2"

    def test_show_unknown_campaign_suggests(self, capsys):
        from repro.cli import main

        assert main(["campaign", "show", "tabel2"]) == 2
        assert "did you mean" in capsys.readouterr().err

    def test_run_requires_exactly_one_source(self, capsys, tmp_path):
        from repro.cli import main

        assert main(["campaign", "run", "--store", str(tmp_path / "s")]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_run_from_file_and_report_offline(self, capsys, tmp_path):
        from repro.cli import main

        campaign_path = tmp_path / "tiny.json"
        campaign_path.write_text(tiny_campaign().to_json(), encoding="utf-8")
        store = str(tmp_path / "store")
        report_dir = tmp_path / "report"
        code = main(
            ["campaign", "run", "--file", str(campaign_path),
             "--store", store, "--report-dir", str(report_dir)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "4 newly computed" in out
        assert (report_dir / "report.md").exists()
        assert (report_dir / "report.html").exists()
        # A fully-cached rerun and an offline report render the same body
        # (the cold run above differs: it marks its units computed).
        code = main(
            ["campaign", "run", "--file", str(campaign_path),
             "--store", store, "--report-dir", str(report_dir)]
        )
        assert code == 0
        assert "0 newly computed" in capsys.readouterr().out
        code = main(
            ["campaign", "report", "--file", str(campaign_path),
             "--store", store, "--report-dir", str(tmp_path / "report2"),
             "--format", "md"]
        )
        assert code == 0
        capsys.readouterr()
        cached_run = report_body((report_dir / "report.md").read_text(encoding="utf-8"))
        offline = report_body(
            (tmp_path / "report2" / "report.md").read_text(encoding="utf-8")
        )
        assert cached_run == offline

    def test_report_against_missing_store_fails(self, capsys, tmp_path):
        from repro.cli import main

        code = main(
            ["campaign", "report", "table1", "--store", str(tmp_path / "none"),
             "--report-dir", str(tmp_path / "r")]
        )
        assert code == 2
        assert "does not exist" in capsys.readouterr().err


class TestScenarioDidYouMean:
    def test_scenario_run_unknown_name_exits_with_suggestion(self, capsys):
        from repro.cli import main

        code = main(["scenario", "run", "uniform/lin"])
        captured = capsys.readouterr()
        assert code == 2
        assert "unknown scenario" in captured.err
        assert "did you mean" in captured.err
        assert "uniform/line" in captured.err
        assert "Traceback" not in captured.err

    def test_scenario_show_unknown_name_suggests_too(self, capsys):
        from repro.cli import main

        assert main(["scenario", "show", "churn/ring-crash-restar"]) == 2
        assert "did you mean 'churn/ring-crash-restart'" in capsys.readouterr().err
