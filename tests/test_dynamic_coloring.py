"""Differential tests for the dynamic recoloring layer (:mod:`repro.dynamic`).

The central contract: after *every* update batch, a ``strategy="incremental"``
session and a ``strategy="recompute"`` session that received the identical
batches

* hold the identical patched CSR (the delta-merge patch equals a from-scratch
  rebuild of the same edge set),
* both pass :func:`assert_legal_vertex_coloring`, and
* the incremental session's palette bound never exceeds the recompute
  session's (both are monotone running maxima, and each incremental repair
  stays within ``Delta + 1`` while every from-scratch run's palette is at
  least ``Delta + 1``).

Churn schedules are hypothesis-driven: insert/delete/mixed batches with
duplicate edges, insertions of already-present edges, removals of absent
edges, and empty batches -- on grid, random-regular and Barabasi-Albert
bases.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import graph_oracles
from engine_configs import ARRAY_CONFIGS, ENGINE_CONFIGS, engine_config

from repro import graphs
from repro.dynamic import DynamicColoring, UpdateReport
from repro.exceptions import InvalidParameterError
from repro.local_model import build_line_graph_fast
from repro.local_model.fast_network import FastNetwork

QUICK_PROPERTY = settings(
    max_examples=15, suppress_health_check=[HealthCheck.too_slow], deadline=None
)

#: (name, base-graph maker, neighborhood-independence bound c).
BASE_GRAPHS = [
    ("grid", lambda: graphs.grid_graph(4, 5), 2),
    ("regular", lambda: graphs.random_regular(24, 4, seed=3), 4),
    ("ba", lambda: graphs.barabasi_albert(20, 3, seed=5), 4),
]


def churn_step(n: int):
    """One (added, removed) batch: loop-free pairs, duplicates allowed."""
    pair = st.tuples(
        st.integers(min_value=0, max_value=n - 1),
        st.integers(min_value=0, max_value=n - 1),
    ).filter(lambda p: p[0] != p[1])
    return st.tuples(st.lists(pair, max_size=8), st.lists(pair, max_size=8))


def canonical_edge_set(fast: FastNetwork) -> set:
    rows, cols = fast.rows_np, fast.indices_np
    forward = rows < cols
    return set(zip(rows[forward].tolist(), cols[forward].tolist()))


def from_edge_set(edges: set, n: int) -> FastNetwork:
    pairs = sorted(edges)
    u = np.array([pair[0] for pair in pairs], dtype=np.int64)
    v = np.array([pair[1] for pair in pairs], dtype=np.int64)
    return FastNetwork.from_edge_array(u, v, num_nodes=n)


def loop_free_pair(n: int):
    return st.tuples(
        st.integers(min_value=0, max_value=n - 1),
        st.integers(min_value=0, max_value=n - 1),
    ).filter(lambda p: p[0] != p[1])


@st.composite
def patch_base(draw):
    """A small view with ascending rows, or an ``L(G)`` view (incidence-order rows)."""
    if draw(st.booleans()):
        k = draw(st.integers(min_value=3, max_value=7))
        pairs = draw(st.sets(loop_free_pair(k), min_size=1, max_size=14))
        return build_line_graph_fast(from_edge_set({tuple(sorted(p)) for p in pairs}, k))
    n = draw(st.integers(min_value=1, max_value=9))
    pairs = draw(st.sets(loop_free_pair(n), max_size=20)) if n > 1 else set()
    return from_edge_set({tuple(sorted(p)) for p in pairs}, n)


class TestDifferentialChurn:
    @pytest.mark.parametrize("name,maker,c", BASE_GRAPHS)
    @QUICK_PROPERTY
    @given(data=st.data())
    def test_incremental_matches_recompute_every_step(self, name, maker, c, data):
        base = maker()
        n = base.num_nodes
        incremental = DynamicColoring(base, c=c, engine="vectorized")
        recompute = DynamicColoring(
            base, c=c, strategy="recompute", engine="vectorized"
        )
        assert incremental.palette_bound == recompute.palette_bound
        steps = data.draw(st.lists(churn_step(n), min_size=1, max_size=4))
        for added, removed in steps:
            inc_report = incremental.apply_updates(added=added, removed=removed)
            rec_report = recompute.apply_updates(added=added, removed=removed)
            # The patch is strategy-independent: identical CSR either way.
            assert list(incremental.network.indptr) == list(recompute.network.indptr)
            assert list(incremental.network.indices) == list(recompute.network.indices)
            assert inc_report.edges_added == rec_report.edges_added
            assert inc_report.edges_removed == rec_report.edges_removed
            # Both stay legal, and within their own palette bound.
            incremental.verify()
            recompute.verify()
            for session in (incremental, recompute):
                if session.network.num_nodes:
                    assert int(session.color_column.max()) <= session.palette_bound
            assert incremental.palette_bound <= recompute.palette_bound

    @pytest.mark.parametrize("name,maker,c", BASE_GRAPHS)
    @QUICK_PROPERTY
    @given(data=st.data())
    def test_patch_equals_rebuild_from_scratch(self, name, maker, c, data):
        """The delta-merge CSR equals a from-scratch build of the edge set."""
        base = maker()
        n = base.num_nodes
        session = DynamicColoring(base, c=c, engine="vectorized")
        edges = canonical_edge_set(base)
        steps = data.draw(st.lists(churn_step(n), min_size=1, max_size=3))
        for added, removed in steps:
            report = session.apply_updates(added=added, removed=removed)
            for u, v in removed:
                edges.discard((min(u, v), max(u, v)))
            for u, v in added:
                edges.add((min(u, v), max(u, v)))
            assert canonical_edge_set(session.network) == edges
            assert session.network.num_edges == len(edges)
            if edges:
                rebuilt = FastNetwork.from_edge_array(
                    np.array([e[0] for e in sorted(edges)], dtype=np.int64),
                    np.array([e[1] for e in sorted(edges)], dtype=np.int64),
                    num_nodes=n,
                )
                assert list(session.network.indptr) == list(rebuilt.indptr)
                assert list(session.network.indices) == list(rebuilt.indices)
            assert isinstance(report, UpdateReport)


class TestPatchArrays:
    """``with_edge_updates`` against ``from_edge_array`` on the set arithmetic."""

    @settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow], deadline=None)
    @given(base=patch_base(), data=st.data())
    def test_patch_chain_equals_rebuild_and_reports_count_it(self, base, data):
        n = base.num_nodes
        edges = canonical_edge_set(base)
        session = DynamicColoring(base, c=n, engine="vectorized")
        view = base
        for _ in range(5):  # a chain: each patch starts from a patched view
            if n > 1:
                # Present edges (either endpoint order), absent ones, and
                # duplicates on both sides; an add may repeat a removal.
                known = sorted(edges | {(0, 1)})
                pair = st.one_of(
                    st.sampled_from(known + [p[::-1] for p in known]), loop_free_pair(n)
                )
                removed = data.draw(st.lists(pair, max_size=8))
                repeat = st.sampled_from(removed or known)
                added = data.draw(st.lists(st.one_of(pair, repeat), max_size=8))
            else:
                removed = added = []
            gone = {tuple(sorted(p)) for p in removed}
            put = {tuple(sorted(p)) for p in added}
            survivors = edges - gone
            add_pairs, remove_pairs = (
                np.array(side, dtype=np.int64).reshape(-1, 2) for side in (added, removed)
            )
            view = view.with_edge_updates(*add_pairs.T, *remove_pairs.T)
            report = session.apply_updates(added=add_pairs, removed=remove_pairs)
            assert report.edges_removed == len(gone & edges)
            assert report.edges_added == len(put - survivors)
            edges = survivors | put
            oracle = from_edge_set(edges, n)
            # An empty batch leaves the session's view as it was (rows in any order).
            for patched in (view, session.network.ascending_rows()):
                np.testing.assert_array_equal(patched.indptr, oracle.indptr)
                np.testing.assert_array_equal(patched.indices, oracle.indices)
                np.testing.assert_array_equal(patched.degrees, oracle.degrees)
            assert view.ascending_rows() is view
            session.verify()


class TestTimedChurnPath:
    def test_patched_session_reads_no_whole_graph_column(self, monkeypatch):
        """After one patch, a batch never builds an ``O(|E|)`` column of the graph.

        ``rows_np`` raises on any view of the whole graph for five batches;
        the reports, the coloring and the CSR must equal those of an
        unguarded run.
        """
        base = graphs.random_regular(600, 6, seed=4)
        n = base.num_nodes
        rng = np.random.default_rng(5)
        edges = canonical_edge_set(base)
        batches = []
        for _ in range(6):
            present = sorted(edges)
            removed = [present[i] for i in rng.choice(len(present), 20, replace=False)]
            drawn = rng.integers(0, n, (24, 2)).tolist()
            added = [tuple(sorted(p)) for p in drawn if p[0] != p[1]]
            edges = (edges - set(removed)) | set(added)
            batches.append((added, removed))

        def run(guarded: bool):
            session = DynamicColoring(base, c=6, engine="vectorized")
            reports = [session.apply_updates(*batches[0])]
            with monkeypatch.context() as patch:
                for name in ("rows_np",) if guarded else ():
                    original = getattr(FastNetwork, name).fget

                    def guard(view, original=original, name=name):
                        if view.num_nodes == n:
                            raise AssertionError(f"{name} read on the whole graph")
                        return original(view)

                    patch.setattr(FastNetwork, name, property(guard))
                reports += [session.apply_updates(*batch) for batch in batches[1:]]
            session.verify()
            return reports, session.color_column, session.network

        reports, column, network = run(guarded=True)
        expected_reports, expected_column, expected_network = run(guarded=False)
        assert any(report.conflicts for report in reports[1:]), "no batch needed a repair"
        assert reports == expected_reports
        np.testing.assert_array_equal(column, expected_column)
        np.testing.assert_array_equal(network.indptr, expected_network.indptr)
        np.testing.assert_array_equal(network.indices, expected_network.indices)
        assert canonical_edge_set(network) == edges


class TestBatchSemantics:
    def _session(self, **kwargs):
        base = graphs.grid_graph(3, 4)
        return DynamicColoring(base, c=2, engine="vectorized", **kwargs)

    def test_empty_and_none_batches_are_noops(self):
        session = self._session()
        before = session.color_column
        for added, removed in [(None, None), ([], []), (np.zeros((0, 2)), None)]:
            report = session.apply_updates(added=added, removed=removed)
            assert report.edges_added == report.edges_removed == 0
            assert report.conflicts == report.repaired_nodes == 0
            assert (session.color_column == before).all()

    def test_duplicate_and_present_edges_count_once(self):
        session = self._session()
        # (0, 1) is a grid edge already; (0, 5) twice counts once.
        report = session.apply_updates(added=[(0, 1), (0, 5), (5, 0), (0, 5)])
        assert report.edges_added == 1
        session.verify()

    def test_removing_absent_edges_is_a_noop(self):
        session = self._session()
        edges_before = session.network.num_edges
        report = session.apply_updates(removed=[(0, 11), (11, 0), (2, 9)])
        assert report.edges_removed == 0
        assert session.network.num_edges == edges_before

    def test_remove_then_readd_in_one_batch(self):
        # Removals apply before insertions: the edge survives the batch.
        session = self._session()
        edges_before = session.network.num_edges
        report = session.apply_updates(added=[(0, 1)], removed=[(0, 1)])
        assert report.edges_removed == 1
        assert report.edges_added == 1
        assert session.network.num_edges == edges_before
        session.verify()

    def test_batch_shapes_accepted(self):
        session = self._session()
        session.apply_updates(added=np.array([[0, 5], [1, 6]], dtype=np.int64))
        session.apply_updates(
            added=(np.array([0, 1], dtype=np.int64), np.array([7, 8], dtype=np.int64))
        )
        session.apply_updates(added=[(2, 9)])
        session.verify()

    def test_self_loops_and_out_of_range_rejected(self):
        session = self._session()
        with pytest.raises(InvalidParameterError, match="self-loop"):
            session.apply_updates(added=[(3, 3)])
        with pytest.raises(InvalidParameterError):
            session.apply_updates(added=[(0, 99)])
        with pytest.raises(InvalidParameterError, match="shape"):
            session.apply_updates(added=np.zeros((2, 3), dtype=np.int64))
        with pytest.raises(InvalidParameterError, match="disagree"):
            session.apply_updates(added=(np.array([0]), np.array([1, 2])))

    def test_invalid_session_parameters_rejected(self):
        base = graphs.grid_graph(3, 3)
        with pytest.raises(InvalidParameterError, match="strategy"):
            DynamicColoring(base, c=2, strategy="lazy")


class TestSessionBehavior:
    def _schedule(self, session, seed=4, steps=5, batch=6):
        rng = np.random.default_rng(seed)
        n = session.network.num_nodes
        for _ in range(steps):
            add_u = rng.integers(0, n, size=batch)
            add_v = rng.integers(0, n, size=batch)
            loopless = add_u != add_v
            fast = session.network
            forward = fast.rows_np < fast.indices_np
            edge_u, edge_v = fast.rows_np[forward], fast.indices_np[forward]
            pick = rng.integers(0, len(edge_u), size=batch // 2)
            session.apply_updates(
                added=(add_u[loopless], add_v[loopless]),
                removed=(edge_u[pick], edge_v[pick]),
            )
            session.verify()

    def test_deterministic_replay(self):
        columns = []
        for _ in range(2):
            session = DynamicColoring(
                graphs.random_regular(32, 4, seed=7),
                c=4,
                engine="vectorized",
            )
            self._schedule(session)
            columns.append(session.color_column)
        assert (columns[0] == columns[1]).all()

    def test_engines_agree_on_the_full_session(self):
        columns = {}
        metrics = {}
        for config in ENGINE_CONFIGS:
            with engine_config(config) as engine:
                session = DynamicColoring(
                    graphs.random_regular(24, 4, seed=2),
                    c=4,
                    engine=engine,
                )
                self._schedule(session, seed=9)
            columns[config] = session.color_column
            metrics[config] = session.metrics.summary()
        for config in ARRAY_CONFIGS:
            assert (columns["reference"] == columns[config]).all()
            assert metrics["reference"] == metrics[config]

    def test_vectorized_repairs_report_no_fallback(self):
        session = DynamicColoring(
            graphs.random_regular(48, 6, seed=1),
            c=6,
            engine="vectorized",
        )
        self._schedule(session, seed=3, steps=6, batch=10)
        assert any(r.conflicts for r in session.reports), "schedule never conflicted"
        # The fields perfbench still reads stay empty: there is no fallback.
        assert all(report.fallback_phases == () for report in session.reports)
        assert session.metrics.fallback_phase_names == []

    def test_reports_and_accessors(self):
        base = graphs.grid_graph(4, 4)
        session = DynamicColoring(base, c=2, engine="vectorized")
        report = session.apply_updates(added=[(0, 15)])
        assert session.reports == [report]
        assert report.step == 1
        assert report.strategy == "incremental"
        column = session.color_column
        column[:] = -1  # a copy: mutating it must not corrupt the session
        session.verify()
        colors = session.colors
        assert set(colors) == set(session.network.order)
        assert all(1 <= color <= session.palette_bound for color in colors.values())

    def test_hand_built_input_is_accepted(self):
        grid = graph_oracles.adjacency(graphs.grid_graph(3, 4))
        hand_built = FastNetwork.from_adjacency(grid)
        session = DynamicColoring(hand_built, c=2)
        session.apply_updates(added=[(0, 7)])
        session.verify()

    def test_palette_bound_is_monotone(self):
        session = DynamicColoring(
            graphs.random_regular(20, 4, seed=8),
            c=4,
            engine="vectorized",
        )
        bounds = [session.palette_bound]
        self._schedule(session, seed=12, steps=5)
        bounds.extend(r.palette_bound for r in session.reports)
        assert bounds == sorted(bounds)
