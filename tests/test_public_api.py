"""Tests for the top-level public API (`repro.quick_run` and re-exports)."""

from __future__ import annotations

import importlib
import tomllib
from pathlib import Path

import pytest

import repro
import repro.cli
from repro import EventTrace, SimulationError, TimeModel, quick_run


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
