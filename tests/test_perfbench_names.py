"""The names the repository benchmark's tracer patches stay bound.

``perfbench/tracer.py`` imports classes from ``src/`` by module path and
wraps their methods by attribute name.  The untraced pipeline never calls
``install()``, so a renamed or deleted name would only surface in a traced
benchmark run.  These tests install the tracer against ``src/`` and check
that ``uninstall()`` puts every patched attribute back.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro.backends.gf2bit import PackedGf2Eliminator
from repro.errors import BackendError, EngineError
from repro.gf.linalg import BatchEliminator
from repro.gossip.batch import BatchEngineCore, BatchGossipEngine
from repro.gossip.batch_tag import BatchSpanningTreeEngine, BatchTagEngine

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _patched_names(module) -> list[tuple[object, str]]:
    tracer = module.install(module.Tracer())
    try:
        return [(owner, attr) for owner, attr, _, _ in tracer._patches]
    finally:
        tracer.uninstall()


def test_install_patches_src_and_uninstall_restores_every_attribute():
    module = _tracer_module()
    names = _patched_names(module)
    assert names
    before = {(owner, attr): vars(owner).get(attr) for owner, attr in names}
    tracer = module.install(module.Tracer())
    try:
        for owner, attr in names:
            assert vars(owner)[attr] is not before[(owner, attr)], (owner, attr)
    finally:
        tracer.uninstall()
    after = {(owner, attr): vars(owner).get(attr) for owner, attr in names}
    assert after == before


@pytest.mark.parametrize(
    "placeholder",
    [BatchEngineCore, BatchGossipEngine, BatchTagEngine, BatchSpanningTreeEngine],
)
def test_deleted_engine_placeholders_refuse(placeholder):
    with pytest.raises(EngineError, match="deleted"):
        placeholder()


def test_deleted_engine_core_run_refuses():
    with pytest.raises(EngineError, match="deleted"):
        BatchEngineCore.run(object.__new__(BatchEngineCore))


#: The deleted eliminators, each bound to a placeholder the tracer patches.
DELETED_ELIMINATORS = pytest.mark.parametrize(
    "placeholder", [PackedGf2Eliminator, BatchEliminator], ids=lambda cls: cls.__name__
)


@DELETED_ELIMINATORS
def test_deleted_eliminator_refuses(placeholder):
    with pytest.raises(BackendError, match=f"{placeholder.__name__} was deleted"):
        placeholder()


@DELETED_ELIMINATORS
@pytest.mark.parametrize(
    "method", ["combine", "combine_one", "eliminate", "eliminate_one"]
)
def test_deleted_eliminator_methods_refuse(placeholder, method):
    """The four names the tracer wraps stay bound, each a typed refusal."""
    instance = object.__new__(placeholder)
    with pytest.raises(BackendError, match=f"{placeholder.__name__} was deleted"):
        getattr(instance, method)(0, [])
