"""Tests for the top-level public API (`repro.quick_run` and re-exports)."""

from __future__ import annotations

import importlib
import tomllib
from pathlib import Path

import pytest

import repro
import repro.cli
from repro import EventTrace, ScenarioSpec, SimulationError, TimeModel, quick_run
from repro.scenarios import default_scenario_config


class TestQuickRun:
    def test_default_uniform_run(self):
        result = quick_run("ring", n=10, k=5, seed=1)
        assert result.completed
        assert result.k == 5
        assert result.n == 10

    def test_tag_and_tag_is(self):
        for protocol in ("tag", "tag-is"):
            result = quick_run("barbell", n=10, protocol=protocol, seed=2)
            assert result.completed
            assert result.metadata["protocol"] == "TAG"

    def test_asynchronous_mode(self):
        result = quick_run("line", n=8, k=4, time_model=TimeModel.ASYNCHRONOUS, seed=3)
        assert result.completed
        assert result.timeslots >= result.rounds

    def test_k_defaults_to_n_and_is_clamped(self):
        result = quick_run("ring", n=8, seed=4)
        assert result.k == 8
        clamped = quick_run("ring", n=8, k=100, seed=4)
        assert clamped.k == 8

    def test_trace_capture(self):
        trace = EventTrace()
        result = quick_run("ring", n=8, k=4, seed=5, trace=trace)
        assert len(trace) == result.messages_sent
        assert len(trace.helpful_events()) == result.helpful_messages

    def test_topology_kwargs_forwarded(self):
        result = quick_run("clique_chain", n=12, k=6, seed=6, cliques=3)
        assert result.completed

    def test_unknown_protocol_rejected(self):
        with pytest.raises(SimulationError):
            quick_run("ring", n=8, protocol="telepathy")

    def test_version_and_exports(self):
        assert repro.__version__
        for name in ("GF", "Generation", "RlncDecoder", "AlgebraicGossip", "TagProtocol"):
            assert hasattr(repro, name)


#: quick_run's protocol names → the spec's (protocol, spanning tree).
QUICK_PROTOCOLS = {
    "uniform": ("uniform", "brr"),
    "tag": ("tag", "brr"),
    "tag-is": ("tag", "is"),
}


def _trial_zero(protocol: str, time_model: TimeModel):
    """Trial 0 of the spec ``repro run --topology barbell --n 12 --k 6 --seed 1``
    builds for ``--protocol`` and ``--time-model``."""
    spec_protocol, spanning_tree = QUICK_PROTOCOLS[protocol]
    return ScenarioSpec(
        topology="barbell", n=12, k=6, protocol=spec_protocol,
        spanning_tree=spanning_tree,
        config=default_scenario_config(time_model=time_model, max_rounds=200_000),
        trials=1, seed=1,
    ).materialize().run_single()


_QUICK_CASES = pytest.mark.parametrize(
    "protocol,time_model",
    [(protocol, model) for protocol in QUICK_PROTOCOLS for model in TimeModel],
    ids=lambda value: getattr(value, "value", value),
)


class TestQuickRunIsTrialZeroOfRun:
    """``quick_run`` returns trial 0 of the spec ``repro run`` builds from the
    same arguments, through ``run_single``; only a trace adds a scalar run."""

    @_QUICK_CASES
    def test_quick_run_is_the_run_commands_trial_zero(self, protocol, time_model, capsys):
        result = quick_run(
            "barbell", n=12, k=6, protocol=protocol, time_model=time_model, seed=1
        )
        assert result == _trial_zero(protocol, time_model)
        assert repro.cli.main([
            "run", "--topology", "barbell", "--n", "12", "--k", "6",
            "--protocol", protocol, "--time-model", time_model.value,
            "--seed", "1", "--no-store",
        ]) == 0
        out = capsys.readouterr().out
        assert f"{protocol} on barbell(n=12, k=6): {result.summary()}\n" in out

    @pytest.mark.parametrize("protocol", sorted(QUICK_PROTOCOLS))
    def test_quick_run_never_runs_the_scalar_engine(self, protocol, monkeypatch):
        from repro.gossip import GossipEngine

        expected = _trial_zero(protocol, TimeModel.SYNCHRONOUS)

        def refuse(engine):
            raise AssertionError("the scalar engine ran")

        monkeypatch.setattr(GossipEngine, "run", refuse)
        assert quick_run("barbell", n=12, k=6, protocol=protocol, seed=1) == expected

    @_QUICK_CASES
    def test_a_traced_quick_run_returns_the_same_result(self, protocol, time_model):
        trace = EventTrace()
        traced = quick_run(
            "barbell", n=12, k=6, protocol=protocol, time_model=time_model, seed=1,
            trace=trace,
        )
        assert traced == _trial_zero(protocol, time_model)
        assert len(trace) == traced.messages_sent


class TestPackageMetadata:
    """``pyproject.toml`` names the package and its console script correctly."""

    @pytest.fixture(scope="class")
    def project(self):
        path = Path(__file__).resolve().parent.parent / "pyproject.toml"
        return tomllib.loads(path.read_text(encoding="utf-8"))

    def test_name_and_version_come_from_the_package(self, project):
        assert project["project"]["name"] == "repro"
        assert "version" in project["project"]["dynamic"]
        attr = project["tool"]["setuptools"]["dynamic"]["version"]["attr"]
        module, _, name = attr.rpartition(".")
        assert getattr(importlib.import_module(module), name) == repro.__version__

    def test_console_script_resolves_to_the_cli(self, project):
        target = project["project"]["scripts"]["repro"]
        module, _, name = target.partition(":")
        assert getattr(importlib.import_module(module), name) is repro.cli.main
