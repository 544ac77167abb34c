"""Refined level views and lazy ``colors`` mappings.

Legal-Color's recursion paths only refine, so each level's CSR view is
filtered from the previous level's view instead of from the root, and the
root itself serves level 0.  Results hold their coloring as a dense
``color_column`` plus a mapping that interns node identifiers only when read,
so a run that reads only the column never builds the ``|E|`` edge tuples of
``L(G)`` and never keeps the line graph alive.
"""

from __future__ import annotations

import gc
import pickle
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from make_goldens import FIXTURES
from repro import graphs
from repro.core import color_edges as core_color_edges
from repro.core import color_vertices, edge_coloring, legal_coloring, run_legal_coloring
from repro.core.parameters import params_for_few_rounds, params_for_linear_colors
from repro.local_model.fast_network import ColumnMapping, FastNetwork
from repro.local_model.line_csr import build_line_graph_fast


def _csr(view):
    return view.indptr.tolist(), view.indices.tolist(), view.degrees.tolist()


class TestRefinedViews:
    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=30),
        data=st.data(),
    )
    def test_view_filtered_from_parent_equals_view_filtered_from_root(self, n, data):
        pairs = data.draw(
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=100
            )
        )
        pairs = [(u, v) for u, v in pairs if u != v]
        u = np.array([a for a, _ in pairs], dtype=np.int64)
        v = np.array([b for _, b in pairs], dtype=np.int64)
        root = FastNetwork.from_edge_array(u, v, num_nodes=n)
        # Nested refinements, extended like base-4 recursion paths.
        labels = np.zeros(n, dtype=np.int64)
        parent = root
        for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
            extension = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
            labels = labels * 4 + np.array(extension, dtype=np.int64)
            from_parent = parent.filtered_by_labels(labels)
            from_root = root.filtered_by_labels(labels)
            assert _csr(from_parent) == _csr(from_root)
            assert from_parent.max_degree == from_root.max_degree
            parent = from_parent

    @pytest.mark.parametrize("engine", ["reference", "vectorized"])
    @pytest.mark.parametrize(
        "preset,edge_mode",
        [(params_for_linear_colors, False), (params_for_few_rounds, True)],
    )
    def test_level_zero_runs_on_the_root_and_later_levels_refine(
        self, monkeypatch, preset, edge_mode, engine
    ):
        line = build_line_graph_fast(graphs.random_regular(40, 16, seed=3))
        filtered_from = []
        real = FastNetwork.filtered_by_labels

        def spy(view, labels):
            filtered_from.append(view)
            return real(view, labels)

        passes = []
        real_make = legal_coloring.make_scheduler

        def make(view, engine=None):
            scheduler = real_make(view, engine=engine)
            run_table = scheduler.run_table

            def recorded(algorithm, table):
                passes.append((view, table.get_ints("_path").copy()))
                return run_table(algorithm, table)

            scheduler.run_table = recorded
            return scheduler

        monkeypatch.setattr(FastNetwork, "filtered_by_labels", spy)
        monkeypatch.setattr(legal_coloring, "make_scheduler", make)
        params = preset(line.max_degree, 2)
        result = run_legal_coloring(line, params, c=2, edge_mode=edge_mode, engine=engine)
        assert result.num_levels >= 2
        # One filter per level after the first, plus the bottom view; the
        # first filter refines the root, every later one its predecessor.
        assert len(filtered_from) == result.num_levels
        assert filtered_from[0] is line
        assert all(view is not line for view in filtered_from[1:])
        assert [level.num_subgraphs for level in result.levels][0] > 1
        # Every pass (the auxiliary coloring, each level, the bottom) runs on
        # a view whose edges join equal recursion paths only: the view alone
        # keeps each subgraph's phases inside the subgraph.
        assert len(passes) == result.num_levels + 2
        for view, path in passes:
            assert np.array_equal(path[view.rows_np], path[view.indices])


def _spy_line_builder(monkeypatch):
    """Wrap the line-graph builder ``color_edges`` uses; returns the records.

    ``provider_calls`` counts calls of the line view's identifier provider;
    ``csr_refs`` holds weak references to each line view's CSR arrays.
    """
    records = {"provider_calls": 0, "csr_refs": []}
    real = edge_coloring.build_line_graph_fast

    def build(network):
        line = real(network)
        provider = line._order_provider

        def counted():
            records["provider_calls"] += 1
            return provider()

        line._order_provider = counted
        records["csr_refs"] += [weakref.ref(line.indptr), weakref.ref(line.indices)]
        return line

    monkeypatch.setattr(edge_coloring, "build_line_graph_fast", build)
    return records


class TestLazyColors:
    def test_color_edges_never_interns_the_edge_tuples(self, monkeypatch):
        g = graphs.random_regular(60, 6, seed=2)
        records = _spy_line_builder(monkeypatch)
        result = repro.color_edges(g)
        assert result.decision.algorithm == "legal-color"
        assert records["provider_calls"] == 0
        # Counting reads the column; neither call interns the identifiers.
        assert result.colors_used == len(np.unique(result.color_column))
        assert result.raw.colors_used == result.colors_used
        assert len(result.colors) == g.num_edges
        assert records["provider_calls"] == 0

        eager = dict(zip(build_line_graph_fast(g).order, result.color_column.tolist()))
        assert isinstance(result.colors, ColumnMapping)
        assert result.colors == eager
        assert eager == result.colors
        assert list(result.colors) == list(eager)
        assert list(result.colors.items()) == list(eager.items())
        assert records["provider_calls"] == 1
        # Read again: interned once.
        assert result.edge_colors[next(iter(eager))] == next(iter(eager.values()))
        assert records["provider_calls"] == 1

    def test_mapping_pickles_as_a_plain_dict(self):
        g = graphs.random_regular(30, 4, seed=5)
        result = core_color_edges(g, route="direct")
        eager = dict(zip(build_line_graph_fast(g).order, result.color_column.tolist()))
        restored = pickle.loads(pickle.dumps(result.edge_colors))
        assert type(restored) is dict
        assert restored == eager and list(restored) == list(eager)
        restored_result = pickle.loads(pickle.dumps(result))
        assert type(restored_result.edge_colors) is dict
        assert restored_result.edge_colors == result.edge_colors

    def test_vertex_results_map_the_network_identifiers(self):
        network = graphs.grid_graph(4, 5)
        result = color_vertices(network, c=2)
        assert isinstance(result.colors, ColumnMapping)
        assert result.colors == dict(zip(network.nodes(), result.color_column.tolist()))
        assert list(result.colors) == list(network.nodes())
        assert result.colors != {}
        assert result.colors != [1, 2]

    def test_result_does_not_keep_the_line_graph_alive(self, monkeypatch):
        g = graphs.random_regular(60, 6, seed=4)
        records = _spy_line_builder(monkeypatch)
        result = repro.color_edges(g)
        gc.collect()
        assert records["csr_refs"]
        assert all(ref() is None for ref in records["csr_refs"])
        # The mapping still answers from its identifier source.
        assert len(dict(result.colors)) == g.num_edges
        assert records["provider_calls"] == 1


def _results(network):
    c = max(2, network.max_degree)
    return [
        ("color_vertices", color_vertices(network, c=c)),
        ("color_edges", core_color_edges(network, route="direct")),
        ("repro.color_graph", repro.color_graph(network, c=c)),
        ("repro.color_edges", repro.color_edges(network)),
    ]


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_colors_used_from_the_column_matches_the_mapping(name):
    network = FIXTURES[name][0]()
    for label, result in _results(network):
        colors = result.edge_colors if hasattr(result, "edge_colors") else result.colors
        assert result.colors_used == len(set(colors.values())), (name, label)
