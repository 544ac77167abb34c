"""One-key CSR sorts and the lifetime of array-built views.

``_lexsort_pairs`` stands in for numpy's two-key lexsort at every CSR-sized
sort site, so it must return exactly the permutation
``np.lexsort((minor, major))`` returns -- negative values, duplicates, empty
inputs and the overflow fallback included.  ``FastNetwork.from_edge_array``
sorts its combined ``row * n + col`` key in place and must yield the CSR a
lexsort-built reference yields.  Array-built views must not sit in a
reference cycle: otherwise every generated graph, CSR arrays and all, lives
until the cyclic garbage collector happens to run.
"""

from __future__ import annotations

import gc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import color_edges, graphs
from repro.local_model import fast_network
from repro.local_model.fast_network import FastNetwork, _lexsort_pairs

#: Value bounds from "many duplicates" to the whole int64 range; spans of
#: ``2**40`` and up force the lexsort fallback.
BOUNDS = st.sampled_from([2, 1_000, 2**20, 2**40, 2**63])


@st.composite
def pair_arrays(draw):
    size = draw(st.integers(0, 60))
    columns = []
    for bound in (draw(BOUNDS), draw(BOUNDS)):
        values = st.integers(-bound, bound - 1)
        columns.append(np.array(draw(st.lists(values, min_size=size, max_size=size)), np.int64))
    return columns


def lexsort_csr(u, v, n):
    """The pre-key-sort ``from_edge_array`` CSR: lexsort, then dedup."""
    rows = np.concatenate([u, v]).astype(np.int64)
    cols = np.concatenate([v, u]).astype(np.int64)
    order = np.lexsort((cols, rows))
    rows, cols = rows[order], cols[order]
    fresh = np.ones(len(rows), dtype=bool)
    fresh[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    rows, cols = rows[fresh], cols[fresh]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr, cols


class TestLexsortPairs:
    @settings(max_examples=300, deadline=None)
    @given(pair_arrays())
    def test_matches_numpy_lexsort(self, arrays):
        major, minor = arrays
        expected = np.lexsort((minor, major))
        assert np.array_equal(_lexsort_pairs(major, minor), expected)

    def test_empty_and_single_entry(self):
        empty = np.zeros(0, dtype=np.int64)
        assert len(_lexsort_pairs(empty, empty)) == 0
        assert _lexsort_pairs(np.array([-7]), np.array([2**62])).tolist() == [0]

    def test_key_path_and_fallback_are_both_taken(self, monkeypatch):
        rng = np.random.default_rng(5)
        small = (rng.integers(-3, 3, 500), rng.integers(-3, 3, 500))
        wide = (rng.integers(-(2**40), 2**40, 500), rng.integers(-(2**40), 2**40, 500))
        expected = [np.lexsort((minor, major)) for major, minor in (small, wide)]
        calls = []
        real_lexsort = np.lexsort
        monkeypatch.setattr(
            fast_network.np, "lexsort", lambda keys: calls.append(1) or real_lexsort(keys)
        )
        assert np.array_equal(_lexsort_pairs(*small), expected[0])
        assert calls == []  # 6 * 6 * 500 fits one key
        assert np.array_equal(_lexsort_pairs(*wide), expected[1])
        assert calls == [1]  # 2**41 * 2**41 * 500 does not


@st.composite
def edge_lists(draw):
    n = draw(st.integers(2, 30))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node).filter(lambda e: e[0] != e[1]), max_size=80))
    return n, edges


class TestFromEdgeArrayKeySort:
    @settings(max_examples=150, deadline=None)
    @given(edge_lists())
    def test_csr_matches_a_lexsort_reference(self, case):
        n, edges = case
        # Reversed copies of every other edge, exact repeats of every third.
        edges = edges + [(b, a) for a, b in edges[::2]] + edges[::3]
        u = np.array([a for a, _ in edges], dtype=np.int64)
        v = np.array([b for _, b in edges], dtype=np.int64)
        fast = FastNetwork.from_edge_array(u, v, num_nodes=n)
        indptr, indices = lexsort_csr(u, v, n)
        assert np.array_equal(fast.indptr_np, indptr)
        assert np.array_equal(fast.indices_np, indices)
        assert fast.max_degree == int(np.diff(indptr).max())


def test_array_built_views_are_freed_without_the_cyclic_gc():
    was_enabled, flags = gc.isenabled(), gc.get_debug()
    gc.collect()
    gc.garbage.clear()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        g = graphs.random_regular(200, 6, seed=1)
        color_edges(g)
        del g
        gc.collect()
        leaked = [obj for obj in gc.garbage if isinstance(obj, FastNetwork)]
        assert leaked == [], f"{len(leaked)} FastNetwork views were only freed by the cyclic GC"
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
