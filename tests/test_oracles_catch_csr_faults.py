"""The oracles still catch faults in the CSR code both engines share.

The reference and the vectorized engine read the same ``FastNetwork``, so a
fault in the CSR builders cannot show as an engine disagreement.  The
networkx generator check and the dict-built line graph of
``graph_oracles`` are what catch it; these tests seed one fault in each
builder -- a mutated copy of the function's own source, patched in for the
test -- and show the oracle fails.  The line-graph fault sits in the numpy
body of the ``line_gather`` kernel step, so that test runs with the C
kernels switched off; the backend probe and ``tests/test_kernels.py`` hold
the C body to the numpy body.
"""

from __future__ import annotations

import inspect
import textwrap

import graph_oracles
from test_generator_backends import DETERMINISTIC_FAMILIES, assert_matches_networkx

from repro import graphs
from repro.local_model import FastNetwork, fast_network, kernels
from repro.local_model.kernels import _numpy


def mutated(function, module, original: str, replacement: str):
    """``function`` recompiled in ``module`` with one source line changed."""
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(original) == 1, original
    source = source.replace(original, replacement).replace("@classmethod\n", "")
    namespace = dict(vars(module))
    exec(compile(source, inspect.getsourcefile(function), "exec"), namespace)
    return namespace[function.__name__]


def without_dedup():
    """``FastNetwork.from_edge_array`` that keeps repeated edges."""
    return classmethod(
        mutated(
            FastNetwork.from_edge_array.__func__,
            fast_network,
            "key = key[np.r_[True, fresh]]",
            "pass",
        )
    )


def with_off_by_one_skip():
    """``line_gather`` (numpy body) that steps over the slot after a row's own entry."""
    return mutated(
        _numpy.line_gather,
        _numpy,
        "slot += slot >= np.repeat(own, chunk_sizes)",
        "slot += slot > np.repeat(own, chunk_sizes)",
    )


def networkx_check_fails() -> bool:
    for name in sorted(DETERMINISTIC_FAMILIES):
        for size in (1, 2, 5, 9):
            try:
                assert_matches_networkx(name, size)
            except AssertionError:
                return True
    return False


def line_graph_check_fails() -> bool:
    for network in (graphs.random_regular(20, 4, seed=1), graphs.star_graph(5)):
        try:
            graph_oracles.assert_line_graph_matches(network)
        except AssertionError:
            return True
    return False


def test_the_unmutated_builders_pass_both_oracles():
    assert not networkx_check_fails()
    assert not line_graph_check_fails()


def test_a_dropped_dedup_fails_the_networkx_generator_check(monkeypatch):
    monkeypatch.setattr(FastNetwork, "from_edge_array", without_dedup())
    assert networkx_check_fails()


def test_an_off_by_one_skip_slot_fails_the_dict_line_graph_oracle(monkeypatch):
    monkeypatch.setattr(_numpy, "line_gather", with_off_by_one_skip())
    restore = kernels.force_backend(None, reason="the numpy line_gather is mutated")
    try:
        assert line_graph_check_fails()
    finally:
        restore()
