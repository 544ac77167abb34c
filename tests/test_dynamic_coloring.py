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
        with pytest.raises(InvalidParameterError, match="ball_radius"):
            DynamicColoring(base, c=2, ball_radius=-1)


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

    def test_wider_ball_radius_stays_legal(self):
        session = DynamicColoring(
            graphs.random_regular(24, 4, seed=5),
            c=4,
            engine="vectorized",
            ball_radius=2,
        )
        self._schedule(session, seed=6, steps=4)
        session.verify()

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
