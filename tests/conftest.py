"""Shared fixtures for the test-suite."""

from __future__ import annotations

import pytest

from engine_configs import ARRAY_CONFIGS, engine_config

from repro import graphs
from repro.local_model import Network


@pytest.fixture(params=ARRAY_CONFIGS)
def array_engine(request):
    """``"vectorized"``, with kernels as resolved and with kernels off."""
    with engine_config(request.param) as engine:
        yield engine


@pytest.fixture
def triangle() -> Network:
    """The 3-cycle (smallest graph with chromatic number 3)."""
    return graphs.cycle_graph(3)


@pytest.fixture
def small_regular() -> Network:
    """A small random 4-regular graph (fast enough for every distributed run)."""
    return graphs.random_regular(24, 4, seed=7)


@pytest.fixture
def medium_regular() -> Network:
    """A medium random 6-regular graph used by the integration tests."""
    return graphs.random_regular(48, 6, seed=11)


@pytest.fixture
def fig1_graph() -> Network:
    """The Figure 1 construction (clique with pendant vertices)."""
    return graphs.clique_with_pendants(10)


@pytest.fixture
def star() -> Network:
    """A star with 5 leaves (neighborhood independence 5, not claw-free)."""
    return graphs.star_graph(5)


@pytest.fixture
def path10() -> Network:
    """The path on 10 vertices."""
    return graphs.path_graph(10)
