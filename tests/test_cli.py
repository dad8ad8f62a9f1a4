"""Tests for the command-line interface."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.topology == "ring"
        assert args.protocol == "uniform"
        assert args.k is None

    def test_invalid_topology_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--topology", "mystery"])

    def test_experiment_subcommand_is_refused(self, capsys):
        # The named experiments are units of the `bounds` campaign now.
        with pytest.raises(SystemExit) as excinfo:
            main(["experiment", "E1-uniform-ag"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'experiment'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["run"],
        ["scenario", "run", "uniform/ring"],
    ], ids=["run", "scenario-run"])
    def test_backend_flag_is_refused(self, argv, capsys):
        # Each engine has one eliminator: there is no backend to choose.
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--backend", "gf2bit"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --backend" in capsys.readouterr().err


class TestRunCommand:
    def test_uniform_run_prints_summary(self, capsys):
        exit_code = main(["run", "--topology", "ring", "--n", "8", "--k", "4", "--seed", "1"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "uniform on ring" in captured.out
        assert "completed after" in captured.out

    def test_tag_run(self, capsys):
        exit_code = main(["run", "--topology", "barbell", "--n", "10",
                          "--protocol", "tag", "--seed", "2"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "tag on barbell" in captured.out
        assert "spanning_tree_protocol" in captured.out

    def test_asynchronous_run(self, capsys):
        exit_code = main(["run", "--topology", "line", "--n", "8", "--k", "4",
                          "--time-model", "asynchronous", "--seed", "3"])
        assert exit_code == 0
        assert "completed after" in capsys.readouterr().out

    def test_bad_field_size_is_reported_as_error(self, capsys):
        exit_code = main(["run", "--field-size", "6"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "error:" in captured.err


class TestEngineSwitch:
    """A spec's engine is the only engine switch; `--engine` sets it on the CLI."""

    @pytest.mark.parametrize("argv", [
        ["run"],
        ["scenario", "run", "uniform/ring"],
        ["campaign", "run", "table1"],
    ], ids=["run", "scenario-run", "campaign-run"])
    def test_batch_flag_is_refused(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--batch"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --batch" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["campaign", "run", "table1"],
    ], ids=["campaign-run"])
    def test_engine_flag_is_refused_where_cases_carry_their_engine(
        self, argv, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--engine", "scalar"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --engine" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["run", "--trials", "3"],
        ["scenario", "run", "uniform/ring", "--trials", "3"],
    ], ids=["run", "scenario-run"])
    def test_scalar_engine_prints_the_default_statistics(self, argv, capsys):
        assert main([*argv, "--no-store"]) == 0
        default = capsys.readouterr().out
        assert main([*argv, "--no-store", "--engine", "scalar"]) == 0
        scalar = capsys.readouterr().out
        # Only the engine line may differ: it names the engine that ran.
        assert default.replace("engine: event (auto: uniform AG)", "") == (
            scalar.replace("engine: scalar (pinned)", "")
        )
        assert "mean=" in default


class TestScenarioShowEngine:
    """`scenario show` names the engine the plan runs on, and why."""

    @pytest.mark.parametrize("name,line", [
        ("uniform/ring", "engine:    event (auto: uniform AG)"),
        ("tag/brr-barbell", "engine:    event (auto: TAG)"),
        ("event/er-logn", "engine:    event (pinned)"),
    ])
    def test_registered_scenarios(self, name, line, capsys):
        assert main(["scenario", "show", name]) == 0
        assert f"  {line}\n" in capsys.readouterr().out

    def test_tag_under_reset_churn_runs_on_the_event_engine(self, capsys):
        from repro.scenarios import SCENARIOS, get_scenario, register_scenario

        tag = get_scenario("tag/brr-barbell")
        spec = register_scenario(tag.replace(
            name="test/tag-reset",
            config=tag.config.replace(churn=((3, 2, 6),), churn_reset=True),
        ))
        try:
            assert main(["scenario", "show", spec.name]) == 0
        finally:
            SCENARIOS.pop(spec.name)
        assert "  engine:    event (auto: TAG)\n" in capsys.readouterr().out


class TestRunPrintsTheEngine:
    """`run` and `scenario run` print the engine that ran, and why."""

    @pytest.mark.parametrize("argv,line", [
        (["run", "--topology", "ring", "--n", "8", "--trials", "2"],
         "engine: event (auto: uniform AG)"),
        (["run", "--topology", "barbell", "--n", "8", "--protocol", "tag",
          "--trials", "2"], "engine: event (auto: TAG)"),
        (["scenario", "run", "tag/brr-barbell", "--trials", "2"],
         "engine: event (auto: TAG)"),
        (["scenario", "run", "tree/brr-broadcast-barbell", "--trials", "2"],
         "engine: event (auto: spanning tree)"),
        (["run", "--topology", "barbell", "--n", "8", "--protocol", "tag"],
         "engine: event (auto: TAG)"),
        (["run", "--topology", "ring", "--n", "8", "--engine", "event"],
         "engine: event (pinned)"),
    ], ids=["uniform", "tag", "scenario-tag", "scenario-tree", "single-run",
            "single-run-pinned"])
    def test_engine_line(self, argv, line, capsys):
        assert main([*argv, "--no-store"]) == 0
        assert f"\n{line}\n" in capsys.readouterr().out

    def test_campaign_progress_names_the_engine(self, tmp_path, capsys):
        from repro.campaigns import CampaignSpec, CampaignUnit
        from repro.scenarios import ScenarioSpec

        campaign = CampaignSpec(name="engines", units=tuple(
            CampaignUnit(name=protocol, spec=ScenarioSpec(
                topology="barbell", n=8, protocol=protocol, trials=1,
            ))
            for protocol in ("uniform", "tag", "spanning_tree")
        ))
        path = tmp_path / "engines.json"
        path.write_text(campaign.to_json(), encoding="utf-8")
        assert main(["campaign", "run", "--file", str(path),
                     "--store", str(tmp_path / "store"),
                     "--report-dir", str(tmp_path / "report")]) == 0
        out = capsys.readouterr().out
        for line in ("uniform: computed (0 cached, 1 computed)",
                     "engine event (auto: uniform AG)",
                     "engine event (auto: TAG)",
                     "engine event (auto: spanning tree)"):
            assert line in out


class TestBoundsCampaignCommand:
    def test_writes_bound_columns_and_reruns_from_cache(self, tmp_path, capsys):
        args = ["campaign", "run", "bounds", "--trials", "1",
                "--store", str(tmp_path / "store"),
                "--report-dir", str(tmp_path / "report"), "--format", "md"]
        assert main(args) == 0
        assert "17 newly computed" in capsys.readouterr().out
        report = (tmp_path / "report" / "report.md").read_text(encoding="utf-8")
        for column in ("ratio(theorem1)", "ratio(theorem3)", "ratio(theorem4)",
                       "ratio(tag_brr)", "ratio(lower)"):
            assert column in report
        assert main(args) == 0
        assert "0 newly computed" in capsys.readouterr().out


class TestTablesCommand:
    def test_prints_both_tables(self, capsys):
        exit_code = main(["tables", "--n", "16", "--k", "8"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "Table 1 (analytic)" in captured.out
        assert "Table 2" in captured.out
        assert "improvement_factor" in captured.out


class TestStoreIntegration:
    """The --store / --no-store / --fresh flags and the `store` subcommand."""

    def _run_args(self, store_path: str, trials: int = 4) -> list[str]:
        return [
            "run", "--topology", "ring", "--n", "8", "--k", "4",
            "--trials", str(trials), "--seed", "1", "--store", store_path,
        ]

    def test_run_then_cached_rerun(self, tmp_path, capsys):
        store_path = str(tmp_path / "store")
        assert main(self._run_args(store_path)) == 0
        cold = capsys.readouterr().out
        assert "4 newly computed" in cold
        assert main(self._run_args(store_path)) == 0
        warm = capsys.readouterr().out
        assert "4 trial(s) read from cache" in warm
        assert "0 newly computed" in warm
        # Identical statistics line either way.
        assert cold.splitlines()[0] == warm.splitlines()[0]

    def test_single_run_reads_through_the_store(self, tmp_path, capsys):
        store_path = str(tmp_path / "store")
        assert main(self._run_args(store_path, trials=1)) == 0
        assert "1 newly computed" in capsys.readouterr().out
        assert main(self._run_args(store_path, trials=1)) == 0
        out = capsys.readouterr().out
        assert "1 trial(s) read from cache" in out

    def test_fresh_recomputes_but_appends_nothing(self, tmp_path, capsys):
        store_path = str(tmp_path / "store")
        assert main(self._run_args(store_path)) == 0
        capsys.readouterr()
        assert main(self._run_args(store_path) + ["--fresh"]) == 0
        out = capsys.readouterr().out
        assert "0 trial(s) read from cache" in out
        assert "0 newly computed" in out

    def test_env_store_and_no_store(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "env-store"))
        args = ["run", "--topology", "ring", "--n", "8", "--k", "4",
                "--trials", "2", "--seed", "1"]
        assert main(args) == 0
        assert "newly computed" in capsys.readouterr().out
        assert main(args + ["--no-store"]) == 0
        assert "newly computed" not in capsys.readouterr().out

    def test_scenario_run_with_store(self, tmp_path, capsys):
        store_path = str(tmp_path / "store")
        args = ["scenario", "run", "uniform/ring", "--trials", "3",
                "--store", store_path]
        assert main(args) == 0
        assert "3 newly computed" in capsys.readouterr().out
        assert main(args) == 0
        assert "3 trial(s) read from cache" in capsys.readouterr().out


class TestStoreCommands:
    def _populate(self, store_path: str, capsys) -> str:
        assert main(["run", "--topology", "ring", "--n", "8", "--k", "4",
                     "--trials", "3", "--seed", "1", "--store", store_path]) == 0
        capsys.readouterr()
        from repro.store import ResultStore

        return ResultStore(store_path).fingerprints()[0]

    def test_ls_and_show(self, tmp_path, capsys):
        store_path = str(tmp_path / "store")
        fingerprint = self._populate(store_path, capsys)
        assert main(["store", "ls", "--store", store_path]) == 0
        out = capsys.readouterr().out
        assert fingerprint[:12] in out and "ring" in out
        assert main(["store", "show", fingerprint[:8], "--store", store_path]) == 0
        out = capsys.readouterr().out
        assert fingerprint in out
        assert "3 trial(s)" in out

    def test_export_diff_and_gc(self, tmp_path, capsys):
        store_path = str(tmp_path / "store")
        self._populate(store_path, capsys)
        export_path = str(tmp_path / "snapshot.jsonl")
        assert main(["store", "export", export_path, "--store", store_path]) == 0
        assert "exported 3 trial record(s)" in capsys.readouterr().out
        assert main(["store", "diff", store_path, export_path]) == 0
        out = capsys.readouterr().out
        assert "3 shared record(s) identical, 0 differing" in out
        assert main(["store", "gc", "--store", store_path]) == 0
        assert "kept 1 shard(s)" in capsys.readouterr().out

    def test_missing_store_is_a_clear_error(self, tmp_path, capsys):
        assert main(["store", "ls", "--store", str(tmp_path / "nope")]) == 2
        assert "does not exist" in capsys.readouterr().err


def test_a_closed_stdout_pipe_exits_without_a_traceback():
    """A reader that closes the pipe early (``| grep -q``) ends the command
    with exit code 1 and no ``BrokenPipeError`` traceback on stderr."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])
    ))
    try:
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "campaign", "list"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert "BrokenPipeError" not in completed.stderr.decode()
    assert completed.returncode == 1
