"""Shared fixtures for the test suite.

Everything is deliberately small (n ≤ 20, k ≤ 16) so the full suite runs in a
couple of minutes; the benchmarks are where larger sweeps live.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import GossipAction, SimulationConfig, TimeModel
from repro.gf import GF
from repro.graphs import (
    barbell_graph,
    binary_tree_graph,
    grid_graph,
    line_graph,
    ring_graph,
)
from repro.rlnc import Generation


@pytest.fixture
def rng() -> np.random.Generator:
    """A fresh deterministic generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture(params=[2, 3, 16, 256], ids=lambda q: f"GF({q})")
def any_field(request):
    """A representative spread of supported fields (prime and extension)."""
    return GF(request.param)


@pytest.fixture(params=[2, 16], ids=["GF(2)-bit-rows", "GF(16)-byte-rows"])
def eliminator_field(request):
    """One field per row layout of the event engine's ``RowEliminator``:
    GF(2) stores a bit per column, GF(16) a byte per column.
    """
    return GF(request.param)


@pytest.fixture
def gf16():
    return GF(16)


@pytest.fixture
def gf2():
    return GF(2)


@pytest.fixture
def small_line():
    """Path graph on 8 nodes (constant degree, large diameter)."""
    return line_graph(8)


@pytest.fixture
def small_ring():
    return ring_graph(8)


@pytest.fixture
def small_grid():
    """3x3 grid (9 nodes)."""
    return grid_graph(9)


@pytest.fixture
def small_tree():
    return binary_tree_graph(10)


@pytest.fixture
def small_barbell():
    """Two 5-cliques joined by an edge (10 nodes)."""
    return barbell_graph(10)


@pytest.fixture
def sync_config() -> SimulationConfig:
    return SimulationConfig(
        field_size=16,
        payload_length=2,
        time_model=TimeModel.SYNCHRONOUS,
        action=GossipAction.EXCHANGE,
        max_rounds=20_000,
    )


@pytest.fixture
def async_config() -> SimulationConfig:
    return SimulationConfig(
        field_size=16,
        payload_length=2,
        time_model=TimeModel.ASYNCHRONOUS,
        action=GossipAction.EXCHANGE,
        max_rounds=20_000,
    )


@pytest.fixture
def small_generation(gf16, rng) -> Generation:
    """Four messages of two GF(16) symbols each."""
    return Generation.random(gf16, k=4, payload_length=2, rng=rng)
