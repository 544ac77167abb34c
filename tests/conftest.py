"""Shared fixtures for the test-suite."""

from __future__ import annotations

import numpy as np
import pytest

from engine_configs import ARRAY_CONFIGS, engine_config

from repro import graphs
from repro.local_model.fast_network import FastNetwork


@pytest.fixture(params=ARRAY_CONFIGS)
def array_engine(request):
    """``"vectorized"``, with kernels as resolved and with kernels off."""
    with engine_config(request.param) as engine:
        yield engine


def reversed_rows(network: FastNetwork) -> FastNetwork:
    """A sibling of ``network`` (same nodes, ids and ``indptr``), every row reversed."""
    nnz = len(network.indices)
    within_rows = np.lexsort((-np.arange(nnz), network.rows_np))
    return network._sibling(
        network.indptr, network.indices[within_rows], network.degrees, network.line_meta
    )


@pytest.fixture(params=["fast", "reversed"])
def shape(request):
    """Hand a graph checker each view as built and with descending rows.

    L(G) views list each row in incidence order, not ascending, so no
    checker may rely on the order of a row.
    """
    return (lambda network: network) if request.param == "fast" else reversed_rows


@pytest.fixture
def triangle() -> FastNetwork:
    """The 3-cycle (smallest graph with chromatic number 3)."""
    return graphs.cycle_graph(3)


@pytest.fixture
def small_regular() -> FastNetwork:
    """A small random 4-regular graph (fast enough for every distributed run)."""
    return graphs.random_regular(24, 4, seed=7)


@pytest.fixture
def medium_regular() -> FastNetwork:
    """A medium random 6-regular graph used by the integration tests."""
    return graphs.random_regular(48, 6, seed=11)


@pytest.fixture
def fig1_graph() -> FastNetwork:
    """The Figure 1 construction (clique with pendant vertices)."""
    return graphs.clique_with_pendants(10)


@pytest.fixture
def star() -> FastNetwork:
    """A star with 5 leaves (neighborhood independence 5, not claw-free)."""
    return graphs.star_graph(5)


@pytest.fixture
def path10() -> FastNetwork:
    """The path on 10 vertices."""
    return graphs.path_graph(10)
