"""The line graph's per-row neighbor order carries no meaning.

``build_line_graph_fast`` lists row ``e = (u, v)`` of ``L(G)`` in incidence
order -- ``inc(u) \\ {e}`` then ``inc(v) \\ {e}`` -- not ascending.  These
tests pin the three things that make that safe:

* **row-order independence** -- every consumer of an ``L(G)`` view (both
  Legal-Color routes and the three line-graph baselines, on every engine
  configuration) gives the identical coloring and per-phase metrics when
  every row of the view is shuffled, and the reference engine on the
  shuffled view gives what the vectorized engine gives on the built one;
* **the builder's layout** -- each row is exactly ``inc(u) \\ {e} ++
  inc(v) \\ {e}``, and as a set it is the networkx ``line_graph``
  neighbourhood (networkx is a test-only oracle);
* **order-agnostic consumers** -- the CSR patch, the verification oracles and
  a dynamic session give on an ``L(G)`` view exactly what they give on the
  same graph with ascending rows, and the verification oracles name the
  offender the node-by-node scans of ``graph_oracles`` name.
"""

from __future__ import annotations

import importlib
from contextlib import ExitStack
from unittest import mock

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graph_oracles
from engine_configs import ENGINE_CONFIGS, engine_config

from repro import graphs
from repro.baselines import (
    greedy_reduction_edge_coloring,
    luby_edge_coloring,
    panconesi_rizzi_edge_coloring,
)
from repro.core import color_edges
from repro.dynamic import DynamicColoring
from repro.exceptions import ColoringError
from repro.local_model import FastNetwork, build_line_graph_fast, fast_view
from repro.verification.coloring import (
    assert_legal_edge_coloring,
    assert_legal_vertex_coloring,
    edge_coloring_defect,
)

#: Graph families of the row-order property: regular (with a dense case
#: whose Delta(L) runs Corollary 5.4 levels), skewed degrees, unit disks.
FAMILIES = {
    "regular": lambda seed: graphs.random_regular(20, 4, seed=seed),
    "regular-dense": lambda seed: graphs.random_regular(34, 16, seed=seed),
    "barabasi-albert": lambda seed: graphs.barabasi_albert(30, 3, seed=seed),
    "geometric": lambda seed: graphs.random_geometric(40, 0.3, seed=seed),
}

#: Every module that derives L(G) for a coloring run.
LINE_GRAPH_CONSUMERS = (
    "repro.core.edge_coloring",
    "repro.baselines._line_pipeline",
    "repro.baselines.luby_random",
)


def shuffled_rows(line: FastNetwork, seed: int) -> FastNetwork:
    """A sibling of ``line`` (same ``indptr``, ids, ``line_meta``), rows permuted."""
    jitter = np.random.default_rng(seed).random(len(line.indices))
    within_rows = np.argsort(line.rows_np + jitter, kind="stable")
    return line._sibling(line.indptr, line.indices[within_rows], line.degrees, line.line_meta)


def run_with_shuffled_line_graphs(run, shuffle_seed):
    """``run()`` with every L(G) its consumers build row-shuffled."""

    def build_shuffled(network):
        return shuffled_rows(build_line_graph_fast(network), shuffle_seed)

    with ExitStack() as stack:
        for name in LINE_GRAPH_CONSUMERS:
            module = importlib.import_module(name)
            stack.enter_context(mock.patch.object(module, "build_line_graph_fast", build_shuffled))
        return run()


def fingerprint(result):
    """Coloring plus every per-phase metric the paper's bounds speak about."""
    metrics = result.metrics
    return (
        result.color_column.tolist(),
        result.palette,
        metrics.rounds,
        metrics.max_message_words,
        [
            (p.name, p.rounds, p.messages, p.total_words, p.max_message_words)
            for p in metrics.phases
        ],
    )


def assert_row_order_free(run, shuffle_seed):
    """``run()`` gives the same fingerprint with shuffled L(G) rows; returns it."""
    shuffled = fingerprint(run_with_shuffled_line_graphs(run, shuffle_seed))
    assert shuffled == fingerprint(run())
    return shuffled


class TestLineGraphRowOrderIndependence:
    @pytest.mark.parametrize("config", ENGINE_CONFIGS)
    @pytest.mark.parametrize("route", ["direct", "simulation"])
    @settings(max_examples=6, deadline=None)
    @given(
        family=st.sampled_from(sorted(FAMILIES)),
        graph_seed=st.integers(0, 40),
        shuffle_seed=st.integers(0, 2**32 - 1),
        quality=st.sampled_from(["superlinear", "linear"]),
    )
    def test_line_graph_routes(self, config, route, family, graph_seed, shuffle_seed, quality):
        network = FAMILIES[family](graph_seed)
        with engine_config(config) as engine:
            shuffled = assert_row_order_free(
                lambda: color_edges(network, quality=quality, route=route, engine=engine),
                shuffle_seed,
            )
        if config == "reference":
            # The reference engine lists each node's neighbors by unique id,
            # so a shuffled view still gives the vectorized engine's answer.
            built = color_edges(network, quality=quality, route=route, engine="vectorized")
            assert shuffled == fingerprint(built)

    @pytest.mark.parametrize("config", ENGINE_CONFIGS)
    @settings(max_examples=6, deadline=None)
    @given(
        family=st.sampled_from(sorted(FAMILIES)),
        graph_seed=st.integers(0, 40),
        shuffle_seed=st.integers(0, 2**32 - 1),
        baseline=st.sampled_from(["panconesi-rizzi", "greedy-reduction", "luby"]),
    )
    def test_line_graph_baselines(self, config, family, graph_seed, shuffle_seed, baseline):
        network = FAMILIES[family](graph_seed)
        runs = {
            "panconesi-rizzi": panconesi_rizzi_edge_coloring,
            "greedy-reduction": greedy_reduction_edge_coloring,
            "luby": lambda net, engine: luby_edge_coloring(net, seed=graph_seed, engine=engine),
        }
        with engine_config(config) as engine:
            shuffled = assert_row_order_free(
                lambda: runs[baseline](network, engine=engine), shuffle_seed
            )
        if config == "reference":
            assert shuffled == fingerprint(runs[baseline](network, engine="vectorized"))


# --------------------------------------------------------------------------- #
# The builder's layout
# --------------------------------------------------------------------------- #

#: Graphs the incidence layout is pinned on: degenerate shapes, skewed
#: degrees, and identifiers that are not the dense range.
LAYOUT_CASES = {
    "empty": lambda: FastNetwork.from_adjacency({}),
    "isolated-only": lambda: FastNetwork.from_adjacency({1: [], 2: [], 3: []}),
    "isolated-and-edges": lambda: FastNetwork.from_edge_array([0, 2, 2], [2, 5, 6], num_nodes=8),
    "star7": lambda: graphs.star_graph(7),
    "barabasi-albert": lambda: graphs.barabasi_albert(40, 3, seed=4),
    "regular": lambda: graphs.random_regular(30, 5, seed=2),
    "tuple-ids": lambda: FastNetwork.from_adjacency(
        {(0, 1): [(2, 3)], (2, 3): [(4, 5)], (4, 5): [(0, 1), (6, 7)]}
    ),
}


def incidence_rows(g: FastNetwork):
    """Oracle: row e = (u, v) of L(G) is inc(u) \\ {e} ++ inc(v) \\ {e}."""
    nbrs = [g.neighbor_indices(u).tolist() for u in range(g.num_nodes)]
    edge_index = {}
    for u in range(g.num_nodes):
        for w in nbrs[u]:
            if u < w:
                edge_index[(u, w)] = len(edge_index)
    rows = []
    for u, v in edge_index:
        row = [edge_index[min(u, w), max(u, w)] for w in nbrs[u] if w != v]
        row += [edge_index[min(v, w), max(v, w)] for w in nbrs[v] if w != u]
        rows.append(row)
    return rows


@pytest.mark.parametrize("case", sorted(LAYOUT_CASES))
def test_line_graph_rows_are_incidence_gathers(case):
    g = fast_view(LAYOUT_CASES[case]())
    line = build_line_graph_fast(g)
    got = [line.neighbor_indices(e).tolist() for e in range(line.num_nodes)]
    assert got == incidence_rows(g)
    np.testing.assert_array_equal(line.degrees, np.diff(line.indptr))

    # As sets, the rows are the networkx line-graph neighbourhoods.
    oracle = nx.line_graph(nx.Graph(list(line.order)))
    for e, edge in enumerate(line.order):
        node = edge if edge in oracle else edge[::-1]
        expected = {frozenset(f) for f in oracle[node]}
        assert {frozenset(line.order[f]) for f in got[e]} == expected


# --------------------------------------------------------------------------- #
# Consumers that read an L(G) view as a graph of its own
# --------------------------------------------------------------------------- #


def line_graph_60x4() -> FastNetwork:
    return build_line_graph_fast(graphs.random_regular(60, 4, seed=3))


def edge_set(view: FastNetwork) -> set:
    rows, cols = view.rows_np, view.indices
    forward = rows < cols
    return set(zip(rows[forward].tolist(), cols[forward].tolist()))


def oracle_view(edges: set, num_nodes: int) -> FastNetwork:
    """The same graph built from scratch: every row ascending."""
    u, v = (np.array(side, dtype=np.int64) for side in zip(*sorted(edges)))
    return FastNetwork.from_edge_array(u, v, num_nodes=num_nodes)


def churn_batch(edges: set, num_nodes: int, rng, size: int = 10):
    """``size`` present edges to remove (reversed) and ``size`` absent ones to add."""
    present = sorted(edges)
    removed = [present[i][::-1] for i in rng.choice(len(present), size, replace=False)]
    added = set()
    while len(added) < size:
        u, v = sorted(rng.choice(num_nodes, 2, replace=False).tolist())
        if (u, v) not in edges:
            added.add((u, v))
    return sorted(added), removed


def endpoint_arrays(pairs):
    return tuple(np.array(side, dtype=np.int64) for side in zip(*pairs))


@pytest.mark.parametrize("derive", ["line", "filtered_by_labels", "induced"])
def test_line_graph_patch_matches_the_rebuilt_oracle(derive):
    view = line_graph_60x4()
    if derive == "filtered_by_labels":
        view = view.filtered_by_labels(np.arange(view.num_nodes) % 3)
    elif derive == "induced":
        view, _ = view.induced(np.arange(view.num_nodes) % 4 != 0)
    rng = np.random.default_rng(7)
    edges = edge_set(view)
    for _ in range(3):  # a chain: later patches start from handed-over keys
        added, removed = churn_batch(edges, view.num_nodes, rng)
        edges = (edges - {pair[::-1] for pair in removed}) | set(added)
        view = view.with_edge_updates(*endpoint_arrays(added), *endpoint_arrays(removed))
        oracle = oracle_view(edges, view.num_nodes)
        np.testing.assert_array_equal(view.indptr, oracle.indptr)
        np.testing.assert_array_equal(view.indices, oracle.indices)
        np.testing.assert_array_equal(view.degrees, oracle.degrees)
        np.testing.assert_array_equal(view.edge_keys_np, oracle.edge_keys_np)


def test_line_graph_dynamic_session_matches_the_ascending_graph():
    line = line_graph_60x4()
    ascending = oracle_view(edge_set(line), line.num_nodes)
    sessions = [DynamicColoring(view, c=2) for view in (line, ascending)]
    rng = np.random.default_rng(11)
    edges = edge_set(line)
    for _ in range(4):
        added, removed = churn_batch(edges, line.num_nodes, rng)
        edges = (edges - {pair[::-1] for pair in removed}) | set(added)
        reports = [session.apply_updates(added, removed) for session in sessions]
        assert reports[0] == reports[1]
        assert reports[0].edges_removed == len(removed)
        np.testing.assert_array_equal(sessions[0].color_column, sessions[1].color_column)
        oracle = oracle_view(edges, line.num_nodes)
        np.testing.assert_array_equal(sessions[0].network.indices, oracle.indices)
        sessions[0].verify()


def failure_text(check, *args) -> str:
    with pytest.raises(ColoringError) as failure:
        check(*args)
    return str(failure.value)


@pytest.mark.parametrize("rows", ["built", "shuffled"])
def test_line_graph_verification_reports_the_mapping_form_offender(rows):
    line = line_graph_60x4()
    if rows == "shuffled":
        line = shuffled_rows(line, seed=5)
    column = np.arange(line.num_nodes, dtype=np.int64) % 3
    colors = dict(zip(line.order, column.tolist()))
    assert failure_text(assert_legal_vertex_coloring, line, column) == failure_text(
        graph_oracles.assert_legal_vertex, line, colors
    )

    # L(G) as the graph G' of an edge coloring: the column follows G''s
    # canonical edges in pair-key order, whatever the row order.
    edge_column = np.arange(line.num_edges, dtype=np.int64) % 7
    edge_colors = dict(zip(graph_oracles.edges(line), edge_column.tolist()))
    assert failure_text(assert_legal_edge_coloring, line, edge_column) == failure_text(
        graph_oracles.assert_legal_edge, line, edge_colors
    )
    assert edge_coloring_defect(line, edge_column) == graph_oracles.edge_defect(line, edge_colors)

    # The same graph G' rebuilt from a dict, every row ascending.
    network = FastNetwork.from_adjacency(
        graph_oracles.adjacency(line), unique_ids=graph_oracles.unique_ids(line)
    )
    on_view, on_network = color_edges(line), color_edges(network)
    np.testing.assert_array_equal(on_view.color_column, on_network.color_column)
    assert_legal_edge_coloring(line, on_view.color_column)
