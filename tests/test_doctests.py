"""Tier-1 doctest lane for the declarative layers.

The docstrings of :class:`~repro.scenarios.ScenarioSpec`,
:class:`~repro.store.ResultStore`, the campaign classes and
:class:`~repro.backends.rows.RowEliminator` carry executable examples (the
API-reference pages in ``docs/api/`` quote the same docstrings), so they
must stay true.  ``make test`` additionally runs the
same modules under ``pytest --doctest-modules``; this file keeps the lane
inside the plain ``pytest`` tier-1 invocation as well.
"""

from __future__ import annotations

import doctest

import pytest

import repro.analysis.tables
import repro.backends.rows
import repro.campaigns.registry
import repro.campaigns.report
import repro.campaigns.runner
import repro.campaigns.spec
import repro.scenarios.registry
import repro.scenarios.spec
import repro.store.result_store

DOCTEST_MODULES = [
    repro.scenarios.spec,
    repro.scenarios.registry,
    repro.store.result_store,
    repro.analysis.tables,
    repro.campaigns.spec,
    repro.campaigns.registry,
    repro.campaigns.runner,
    repro.campaigns.report,
    repro.backends.rows,
]


@pytest.mark.parametrize(
    "module", DOCTEST_MODULES, ids=lambda module: module.__name__
)
def test_module_doctests(module):
    failures, tests = doctest.testmod(module, verbose=False, report=True)
    assert failures == 0, f"{failures} doctest failure(s) in {module.__name__}"


def test_declarative_layers_carry_doctests():
    # The docstring examples are part of the documented contract: the spec,
    # store and campaign surfaces must keep at least one executable example.
    for module in (
        repro.scenarios.spec,
        repro.store.result_store,
        repro.campaigns.spec,
    ):
        finder = doctest.DocTestFinder()
        examples = [
            test for test in finder.find(module) if test.examples
        ]
        assert examples, f"{module.__name__} lost its doctest examples"
