"""The array-built graph generators and the array constructors.

Three contracts are locked down here:

1. **The deterministic families are the textbook graphs.**  Path / cycle /
   complete / star / grid / hypercube / clique-with-pendants are compared
   against networkx builders called right here (networkx is a test oracle
   only): same node identifiers, same edge set, and the same CSR arrays and
   unique ids as ``FastNetwork.from_adjacency`` builds from the networkx
   graph (hypothesis-sampled sizes).
2. **Invariants of the random families.**  The samplers follow their own
   documented ``numpy.random.default_rng(seed)`` streams, so they cannot be
   compared edge-for-edge against networkx; instead the exact guarantees are
   asserted: exact degrees for the regular families, simplicity and symmetry
   everywhere (re-validated from scratch by ``FastNetwork.from_csr(...,
   check=True)``), and seed-reproducibility.
3. **The array entry path.**  A golden scenario enters through
   ``FastNetwork.from_edge_array``, runs the full Legal-Color pipeline on the
   vectorized engine and verifies through the array oracles; the colors
   equal those of the same graph built by ``FastNetwork.from_adjacency``.
"""

from __future__ import annotations

import hashlib
import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import graphs
from repro.core import color_vertices
from repro.exceptions import InvalidParameterError
from repro.graphs.generators import _geometric_edges
from repro.local_model.fast_network import FastNetwork
from repro.verification import assert_legal_vertex_coloring

QUICK_PROPERTY = settings(
    max_examples=20, suppress_health_check=[HealthCheck.too_slow], deadline=None
)


def assert_bit_identical(fast: FastNetwork, compiled: FastNetwork) -> None:
    """The array-built view equals the hand-built view ``compiled``."""
    assert isinstance(fast, FastNetwork)
    assert fast.order == compiled.order
    assert list(fast.unique_ids) == list(compiled.unique_ids)
    assert list(fast.indptr) == list(compiled.indptr)
    assert list(fast.indices) == list(compiled.indices)
    assert fast.max_degree == compiled.max_degree
    assert fast.num_nodes == compiled.num_nodes


def all_close_pairs(points: np.ndarray, radius: float) -> np.ndarray:
    """The all-pairs oracle: every ``(i, j)``, ``i < j``, within ``radius``."""
    gaps = points[:, None, :] - points[None, :, :]
    within = (gaps**2).sum(axis=-1) <= radius * radius
    return np.argwhere(np.triu(within, k=1))


def assert_simple_and_symmetric(network: FastNetwork) -> None:
    """Re-validate the CSR from scratch: simple, ascending rows, symmetric."""
    FastNetwork.from_csr(
        network.indptr, network.indices, unique_ids=network.unique_ids, check=True
    )


def csr_edges(network: FastNetwork) -> np.ndarray:
    """The ``(i, j)``, ``i < j``, edges of a CSR view in row-major order."""
    rows = np.repeat(np.arange(network.num_nodes), network.degrees)
    forward = rows < network.indices
    return np.column_stack([rows[forward], network.indices[forward]])


def nx_clique_with_pendants(k: int) -> nx.Graph:
    graph = nx.relabel_nodes(nx.complete_graph(k), lambda i: ("clique", i))
    graph.add_edges_from((("clique", i), ("pendant", i)) for i in range(k))
    return graph


def nx_hypercube(dimension: int) -> nx.Graph:
    """networkx's bit-tuple hypercube, vertices read as binary numbers."""

    def number(bits) -> int:  # dimension 1 labels the two vertices 0 and 1
        return bits if isinstance(bits, int) else int("".join(map(str, bits)), 2)

    return nx.relabel_nodes(nx.hypercube_graph(dimension), number)


def nx_star(leaves: int) -> nx.Graph:
    return nx.relabel_nodes(
        nx.star_graph(leaves), lambda i: "center" if i == 0 else ("leaf", i - 1)
    )


def nx_grid(rows: int, cols: int) -> nx.Graph:
    return nx.relabel_nodes(nx.grid_2d_graph(rows, cols), lambda rc: rc[0] * cols + rc[1])


#: name -> (generator(size), networkx reference(size)).
DETERMINISTIC_FAMILIES = {
    "path": (graphs.path_graph, nx.path_graph),
    "cycle": (
        lambda size: graphs.cycle_graph(max(3, size)),
        lambda size: nx.cycle_graph(max(3, size)),
    ),
    "complete": (graphs.complete_graph, nx.complete_graph),
    "star": (graphs.star_graph, nx_star),
    "grid": (
        lambda size: graphs.grid_graph(size, size + 2),
        lambda size: nx_grid(size, size + 2),
    ),
    "hypercube": (
        lambda size: graphs.hypercube_graph(1 + size % 6),
        lambda size: nx_hypercube(1 + size % 6),
    ),
    "clique_with_pendants": (graphs.clique_with_pendants, nx_clique_with_pendants),
}


def network_of(graph: nx.Graph) -> FastNetwork:
    """The hand-built view with the networkx graph's nodes and edges."""
    return FastNetwork.from_adjacency({node: list(graph[node]) for node in graph.nodes})


def assert_matches_networkx(name: str, size: int) -> None:
    """The ``name`` family at ``size`` is the networkx graph, CSR and all."""
    maker, reference = DETERMINISTIC_FAMILIES[name]
    fast, graph = maker(size), reference(size)
    assert set(fast.nodes()) == set(graph.nodes)
    edges = fast.edges()
    assert {frozenset(edge) for edge in edges} == {frozenset(edge) for edge in graph.edges}
    assert len(edges) == graph.number_of_edges()
    assert_bit_identical(fast, network_of(graph))


class TestDeterministicFamiliesBitIdentical:
    @pytest.mark.parametrize("name", sorted(DETERMINISTIC_FAMILIES))
    @QUICK_PROPERTY
    @given(size=st.integers(min_value=1, max_value=40))
    def test_matches_the_networkx_graph(self, name, size):
        assert_matches_networkx(name, size)

    def test_backend_keyword_accepts_only_fast(self):
        assert graphs.random_regular(8, 3, seed=1, backend="fast").num_edges == 12
        assert graphs.random_geometric(8, 0.5, seed=1, backend="fast").num_nodes == 8
        for backend in ("legacy", "numpy"):
            with pytest.raises(InvalidParameterError, match="build a FastNetwork only"):
                graphs.random_regular(8, 3, seed=1, backend=backend)
            with pytest.raises(InvalidParameterError, match="build a FastNetwork only"):
                graphs.random_geometric(8, 0.5, seed=1, backend=backend)
        with pytest.raises(TypeError):
            graphs.path_graph(4, backend="fast")


class TestRandomFamilyInvariants:
    @QUICK_PROPERTY
    @given(
        n=st.integers(min_value=2, max_value=48),
        degree=st.integers(min_value=0, max_value=47),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_random_regular_exact_degree_and_simple(self, n, degree, seed):
        if degree >= n or (n * degree) % 2 != 0:
            with pytest.raises(InvalidParameterError):
                graphs.random_regular(n, degree, seed=seed)
            return
        network = graphs.random_regular(n, degree, seed=seed)
        degrees = np.asarray(network.degrees_np)
        assert (degrees == degree).all()
        assert_simple_and_symmetric(network)
        assert network.num_edges == n * degree // 2
        again = graphs.random_regular(n, degree, seed=seed)
        assert list(again.indices) == list(network.indices)

    @QUICK_PROPERTY
    @given(
        side=st.integers(min_value=1, max_value=24),
        seed=st.integers(min_value=0, max_value=2**31),
        data=st.data(),
    )
    def test_bipartite_regular_exact_degree_and_bipartite(self, side, seed, data):
        degree = data.draw(st.integers(min_value=0, max_value=side))
        network = graphs.random_bipartite_regular(side, degree, seed=seed)
        degrees = np.asarray(network.degrees_np)
        assert (degrees == degree).all()
        assert_simple_and_symmetric(network)
        for u, v in network.edges():
            assert u[0] != v[0]
        again = graphs.random_bipartite_regular(side, degree, seed=seed)
        assert list(again.indices) == list(network.indices)

    @QUICK_PROPERTY
    @given(
        n=st.integers(min_value=1, max_value=40),
        probability=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_erdos_renyi_simple_and_reproducible(self, n, probability, seed):
        network = graphs.erdos_renyi(n, probability, seed=seed)
        assert network.num_nodes == n
        assert_simple_and_symmetric(network)
        again = graphs.erdos_renyi(n, probability, seed=seed)
        assert list(again.indices) == list(network.indices)
        if probability >= 1.0 and n > 1:
            assert network.num_edges == n * (n - 1) // 2


class TestBipartiteExactDegreeRegression:
    """The pre-fix sampler dropped colliding matching edges after 200 tries.

    ``degree == side`` forces every later matching to collide with the
    earlier ones (the only valid result is the complete bipartite graph), so
    these parameters deterministically exercised the dropped-edge path.
    """

    @pytest.mark.parametrize("side,degree", [(6, 6), (10, 9), (12, 12), (16, 8)])
    def test_exact_degree_guarantee(self, side, degree):
        for seed in range(3):
            network = graphs.random_bipartite_regular(side, degree, seed=seed)
            assert (network.degrees_np == degree).all(), f"degree violated at seed {seed}"

    def test_complete_bipartite_forced(self):
        network = graphs.random_bipartite_regular(5, 5, seed=1)
        assert network.num_edges == 25

    @pytest.mark.parametrize(
        "side,degree", [(8, 7), (12, 11), (16, 15), (16, 12), (24, 13)]
    )
    def test_dense_regime_fast_repair(self, side, degree):
        """Degree near side: the fast sampler's complement/searchsorted path.

        The pre-PR-6 repair kept a Python set of every accepted ``(i, j)``
        pair; the rewrite detects and probes collisions through sorted
        pair-key ``searchsorted`` passes and diverts ``2 * degree > side`` to
        complement sampling.  Exact biregularity must survive the rewrite.
        """
        for seed in range(3):
            network = graphs.random_bipartite_regular(side, degree, seed=seed)
            assert (np.asarray(network.degrees_np) == degree).all()
            assert_simple_and_symmetric(network)
            for u, v in network.edges():
                assert u[0] != v[0]
            again = graphs.random_bipartite_regular(side, degree, seed=seed)
            assert list(again.indices) == list(network.indices)


class TestHeavyTailedFamilies:
    """The PR 6 workload families: array-native fast samplers, exact invariants."""

    @QUICK_PROPERTY
    @given(
        n=st.integers(min_value=2, max_value=60),
        attachment=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_barabasi_albert_invariants(self, n, attachment, seed):
        if attachment >= n:
            with pytest.raises(InvalidParameterError):
                graphs.barabasi_albert(n, attachment, seed=seed)
            return
        network = graphs.barabasi_albert(n, attachment, seed=seed)
        assert network.num_edges == attachment * (n - attachment)
        degrees = np.asarray(network.degrees_np)
        # Every arriving vertex attaches to `attachment` distinct targets.
        assert (degrees[attachment:] >= attachment).all()
        assert_simple_and_symmetric(network)
        again = graphs.barabasi_albert(n, attachment, seed=seed)
        assert list(again.indices) == list(network.indices)

    @pytest.mark.parametrize("n,attachment,seed", [(40, 3, 1), (200, 1, 2), (300, 5, 3)])
    def test_barabasi_albert_attaches_each_arrival_to_earlier_vertices(self, n, attachment, seed):
        network = graphs.barabasi_albert(n, attachment, seed=seed)
        rows, cols = network.rows_np, network.indices_np
        earlier = np.bincount(rows[cols < rows], minlength=n)
        # The seeds share no edge; every later vertex brought exactly
        # `attachment` edges to vertices that arrived before it.
        assert (earlier[:attachment] == 0).all()
        assert (earlier[attachment:] == attachment).all()
        assert nx.is_connected(nx.Graph(network.edges()))

    def test_barabasi_albert_degrees_are_heavy_tailed(self):
        # Preferential attachment: the hubs far outgrow the mean degree,
        # which a uniform-attachment graph of this size would not.
        network = graphs.barabasi_albert(4000, 2, seed=5)
        degrees = network.degrees_np
        assert degrees.max() >= 10 * degrees.mean()
        assert degrees.min() >= 2

    @QUICK_PROPERTY
    @given(
        n=st.integers(min_value=4, max_value=120),
        exponent=st.floats(min_value=1.5, max_value=3.5),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_planted_sequence_is_realized_exactly(self, n, exponent, seed):
        degrees = graphs.heavy_tailed_degree_sequence(
            n, exponent=exponent, seed=seed
        )
        assert int(degrees.sum()) % 2 == 0
        network = graphs.planted_degree_sequence(degrees, seed=seed)
        assert (np.asarray(network.degrees_np) == degrees).all()
        assert_simple_and_symmetric(network)
        again = graphs.planted_degree_sequence(degrees, seed=seed)
        assert list(again.indices) == list(network.indices)

    def test_planted_sequence_validation(self):
        with pytest.raises(InvalidParameterError, match="even"):
            graphs.planted_degree_sequence([1, 1, 1])
        with pytest.raises(InvalidParameterError, match="degree"):
            graphs.planted_degree_sequence([5, 1, 1, 1, 0])
        with pytest.raises(InvalidParameterError, match="non-empty"):
            graphs.planted_degree_sequence([])

    @QUICK_PROPERTY
    @given(
        n=st.integers(min_value=1, max_value=600),
        radius=st.floats(min_value=0.002, max_value=1.5),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    # Many uncapped cells, a grid capped at isqrt(n), and a single cell.
    @example(n=600, radius=0.1, seed=11)
    @example(n=600, radius=0.002, seed=4)
    @example(n=40, radius=1.5, seed=0)
    def test_random_geometric_matches_brute_force(self, n, radius, seed):
        network = graphs.random_geometric(n, radius, seed=seed)
        assert_simple_and_symmetric(network)
        # The documented point stream: the generator's first draws.
        points = np.random.default_rng(seed).random((n, 2))
        assert np.array_equal(csr_edges(network), all_close_pairs(points, radius))
        again = graphs.random_geometric(n, radius, seed=seed)
        assert list(again.indices) == list(network.indices)

    def test_random_geometric_validation(self):
        with pytest.raises(InvalidParameterError, match="radius"):
            graphs.random_geometric(10, 0.0)
        with pytest.raises(InvalidParameterError, match="n must"):
            graphs.random_geometric(0, 0.3)

    @QUICK_PROPERTY
    @given(
        ports=st.integers(min_value=1, max_value=24),
        seed=st.integers(min_value=0, max_value=2**31),
        data=st.data(),
    )
    def test_bipartite_switch_biregular(self, ports, seed, data):
        demand = data.draw(st.integers(min_value=0, max_value=ports))
        network = graphs.bipartite_switch(ports, demand, seed=seed)
        assert (np.asarray(network.degrees_np) == demand).all()
        assert_simple_and_symmetric(network)
        assert network.nodes()[0] == ("in", 0)
        for u, v in network.edges():
            assert {u[0], v[0]} == {"in", "out"}
        again = graphs.bipartite_switch(ports, demand, seed=seed)
        assert list(again.indices) == list(network.indices)


class TestGeometricSweep:
    """The unit-disk sweep: a pinned CSR per seed, and hand-placed edge cases."""

    #: SHA-256 of ``indptr`` then ``indices`` (int64 bytes) of
    #: ``random_geometric(n, radius, seed)``, recorded with the
    #: earlier full-radius cell sweep: the sweep may change, the graph may not.
    #: ``radius=None`` is the vertex workload's ``sqrt(24 / (pi * n))``.
    CSR_SHA256 = [
        (100_000, None, 1, "c97334cea40f0de16eb03b648a2878f5962737c40a50d87b8466ec23ec74cd40"),
        (100_000, None, 2, "67823d6cf8441c4e5de77c866f6bb204f184d3b041b8e7f543b4e69f06705b6b"),
        (20_000, None, 7, "ebf0fe8830ee811de57daf74332da67b9a420626d62d2a29bc7d96a46a56c60f"),
        (5_000, None, 1, "214d47101fc74fdfe86d859cf777537dffabd8efdc87ef7c801cfefc419d84aa"),
        (2000, 0.001, 3, "b2ea88327bd86412695ba69b1fcb8bd17bcbe9099c334ea5cc22873f5ca367e5"),
        (300, 1e-9, 3, "5d81987966a0197c8a663d8800d87b97c0c5ea4f619d42f44e22bf5321d14cbb"),
        (1, 0.5, 3, "374708fff7719dd5979ec875d56cd2286f6d3cf7ec317a3b25632aab28ec37bb"),
        (400, 1.0, 3, "1167ca709a7ece8a95836a64b77d7bbf38931c6010f3ec8555ee86c1ae90d808"),
        (400, 5.0, 3, "3fc6ca2d9bf41734e873a4e11f3641199399e3de11dcab1bf6b6efa91c2d1335"),
        (1000, 0.05, 3, "069aa757ee4f66505b231d0647ad617b972001d120d251e1dcee679899480ff3"),
    ]

    @pytest.mark.parametrize("n,radius,seed,digest", CSR_SHA256)
    def test_csr_is_byte_identical_per_seed(self, n, radius, seed, digest):
        if radius is None:
            radius = math.sqrt(24 / (math.pi * n))
        network = graphs.random_geometric(n, radius, seed=seed)
        sha = hashlib.sha256(network.indptr.astype(np.int64).tobytes())
        sha.update(network.indices.astype(np.int64).tobytes())
        assert sha.hexdigest() == digest

    @staticmethod
    def assert_sweep_is_exact(points, radius: float) -> np.ndarray:
        """``_geometric_edges`` finds each close pair once, and nothing else."""
        points = np.asarray(points, dtype=np.float64)
        u, v = _geometric_edges(points, radius)
        pairs = np.column_stack([np.minimum(u, v), np.maximum(u, v)])
        found = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
        assert np.array_equal(found, all_close_pairs(points, radius))  # once each
        return found

    @staticmethod
    def with_filler(points, count: int = 300) -> np.ndarray:
        """``points`` first, then random filler so the grid is not capped at 1."""
        filler = np.random.default_rng(0).random((count, 2))
        return np.vstack([np.asarray(points, dtype=np.float64), filler])

    def test_pair_at_exactly_the_radius_is_an_edge(self):
        found = self.assert_sweep_is_exact(
            self.with_filler([(0.25, 0.5), (0.375, 0.5), (0.5, 0.25), (0.5, 0.375)]),
            0.125,
        )
        rows = {tuple(pair) for pair in found.tolist()}
        assert (0, 1) in rows and (2, 3) in rows

    @pytest.mark.parametrize("radius", [0.125, 0.13, 0.1, 2 / 15])
    def test_points_on_cell_boundaries(self, radius):
        # Coordinates k / cells for the grids these radii can give (15 to 20
        # columns over 300+ points), along both axes.
        ticks = sorted({k / cells for cells in range(15, 21) for k in range(cells)})
        points = [(t, 0.5) for t in ticks] + [(0.5, t) for t in ticks]
        points += [(t, t) for t in ticks]
        self.assert_sweep_is_exact(self.with_filler(points), radius)

    def test_points_at_the_far_edges(self):
        # The largest draw below 1, and the closed square's edge itself.
        top = 1 - 2**-53
        points = [(top, top), (top, 0.0), (0.0, top), (top - 0.05, top), (top, top - 0.1)]
        points += [(1.0, 1.0), (1.0, 0.5), (0.5, 1.0), (0.0, 1.0)]
        for radius in (0.05, 0.1, 0.3):
            self.assert_sweep_is_exact(self.with_filler(points), radius)
            self.assert_sweep_is_exact(points, radius)  # one cell

    def test_float_rounding_cannot_split_a_close_pair_three_cells(self):
        # 0.15 - 0.049999999999999996 rounds to exactly 0.1 = r, so this is
        # an edge; on 20 columns (the unmargined floor(2 / r)) the two points
        # land in columns 0 and 3, out of the sweep's reach.
        radius = 0.1
        points = [
            (0.049999999999999996, 0.5),
            (0.15, 0.5),
            (0.5, 0.049999999999999996),
            (0.5, 0.15),
        ]
        found = self.assert_sweep_is_exact(self.with_filler(points, count=500), radius)
        rows = {tuple(pair) for pair in found.tolist()}
        assert (0, 1) in rows and (2, 3) in rows

    def test_close_pair_two_cells_apart_in_both_axes(self):
        # r = 0.13 over 304 points: 15 columns of side 1/15 > r / 2.  Each pair
        # sits just inside cells two columns and two rows apart, at about
        # 0.75 r, in the forward column ranges (+2, +2) and (+2, -2).
        radius, side, eps = 0.13, 1 / 15, 1e-3
        pairs = [
            ((4 * side - eps, 4 * side - eps), (5 * side + eps, 5 * side + eps)),
            ((9 * side - eps, 11 * side + eps), (10 * side + eps, 10 * side - eps)),
        ]
        points = [p for pair in pairs for p in pair]
        found = self.assert_sweep_is_exact(self.with_filler(points), radius)
        rows = {tuple(pair) for pair in found.tolist()}
        assert (0, 1) in rows and (2, 3) in rows


class TestNetworkFreeEntryPath:
    """The golden ``from_edge_array`` scenario: arrays in, arrays verified."""

    def _edge_arrays(self):
        # The 4x5 grid as plain endpoint arrays (same shape the fast grid
        # builder emits, but entering through the public constructor).
        rows, cols = 4, 5
        index = np.arange(rows * cols, dtype=np.int64).reshape(rows, cols)
        u = np.concatenate([index[:, :-1].ravel(), index[:-1, :].ravel()])
        v = np.concatenate([index[:, 1:].ravel(), index[1:, :].ravel()])
        return u, v, rows * cols

    def test_vectorized_run_verifies_on_the_arrays(self):
        u, v, n = self._edge_arrays()
        fast = FastNetwork.from_edge_array(u, v, num_nodes=n)
        result = color_vertices(fast, c=2, quality="superlinear", engine="vectorized")
        assert result.metrics.fallback_phase_names == []
        assert_legal_vertex_coloring(fast, result.color_column)

    def test_colors_match_the_hand_built_graph(self):
        u, v, n = self._edge_arrays()
        fast = FastNetwork.from_edge_array(u, v, num_nodes=n)
        adjacency = {node: [] for node in range(n)}
        for a, b in zip(u.tolist(), v.tolist()):
            adjacency[a].append(b)
        legacy = FastNetwork.from_adjacency(adjacency)
        assert_bit_identical(fast, legacy)
        fast_run = color_vertices(fast, c=2, quality="superlinear", engine="vectorized")
        for engine in ("reference", "vectorized"):
            legacy_run = color_vertices(
                legacy, c=2, quality="superlinear", engine=engine
            )
            assert legacy_run.colors == fast_run.colors
            assert (
                legacy_run.metrics.summary() == fast_run.metrics.summary()
            )

    def test_from_edge_array_validation(self):
        with pytest.raises(InvalidParameterError, match="self-loop"):
            FastNetwork.from_edge_array([0, 1], [0, 2], num_nodes=3)
        with pytest.raises(InvalidParameterError, match="dense indices"):
            FastNetwork.from_edge_array([0], [5], num_nodes=3)
        with pytest.raises(InvalidParameterError, match="disagree in length"):
            FastNetwork.from_edge_array([0, 1], [1], num_nodes=2)
        with pytest.raises(InvalidParameterError, match="strictly increasing"):
            FastNetwork.from_edge_array(
                [0], [1], num_nodes=2, unique_ids=[7, 3]
            )

    def test_from_edge_array_deduplicates_like_from_adjacency(self):
        fast = FastNetwork.from_edge_array(
            [0, 1, 1, 2], [1, 0, 2, 1], num_nodes=4
        )
        legacy = FastNetwork.from_adjacency({0: [1, 1], 1: [0, 2], 2: [1], 3: []})
        assert_bit_identical(fast, legacy)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_from_edge_array_deduplicates_against_np_unique(self, data):
        touched = data.draw(st.integers(2, 25))
        isolated = data.draw(st.integers(0, 5))  # trailing nodes in no edge
        n = touched + isolated
        node = st.integers(0, touched - 1)
        edges = data.draw(
            st.lists(st.tuples(node, node).filter(lambda e: e[0] != e[1]), max_size=60)
        )
        # Every edge again in the other orientation, and some repeated as is.
        repeats = data.draw(st.lists(st.sampled_from(edges), max_size=20)) if edges else []
        edges = edges + [(b, a) for a, b in edges] + repeats
        u = np.array([a for a, _ in edges], dtype=np.int64)
        v = np.array([b for _, b in edges], dtype=np.int64)
        fast = FastNetwork.from_edge_array(u, v, num_nodes=n)
        pairs = np.unique(np.column_stack([np.r_[u, v], np.r_[v, u]]), axis=0)
        degrees = np.bincount(pairs[:, 0], minlength=n)
        assert fast.indptr.dtype == fast.indices.dtype == fast.degrees.dtype == np.int64
        assert np.array_equal(fast.degrees, degrees)
        assert np.array_equal(fast.indptr, np.r_[0, np.cumsum(degrees)])
        assert np.array_equal(fast.indices, pairs[:, 1])
        assert fast.max_degree == int(degrees.max(initial=0))

    def test_from_csr_roundtrip_and_validation(self):
        base = graphs.grid_graph(3, 4)
        rebuilt = FastNetwork.from_csr(list(base.indptr), list(base.indices))
        assert list(rebuilt.indices) == list(base.indices)
        assert rebuilt.order == base.order
        with pytest.raises(InvalidParameterError, match="symmetric"):
            FastNetwork.from_csr([0, 1, 1], [1])
        with pytest.raises(InvalidParameterError, match="strictly increasing"):
            FastNetwork.from_csr([0, 2, 4], [1, 1, 0, 0])
        with pytest.raises(InvalidParameterError, match="self-loops"):
            FastNetwork.from_csr([0, 1, 2], [0, 1])

    def test_non_integer_endpoints_are_rejected_not_truncated(self):
        # Floats and bools used to be cast silently: [0.7]-[1.2] built edge
        # 0-1 and num_nodes=2.5 gave two nodes.  Every array entry point now
        # refuses them; empty inputs (float64 under np.asarray) still pass.
        from repro.dynamic import DynamicColoring

        dtype = "must hold integers"
        for u, v in (([0.7], [1.2]), ([0.0], [1.0]), ([True], [False])):
            with pytest.raises(InvalidParameterError, match=dtype):
                FastNetwork.from_edge_array(u, v, num_nodes=2)
        with pytest.raises(InvalidParameterError, match="num_nodes must be an integer"):
            FastNetwork.from_edge_array([0], [1], num_nodes=2.5)
        assert FastNetwork.from_edge_array([], [], num_nodes=3).num_edges == 0
        assert FastNetwork.from_edge_array([0], [1], num_nodes=np.int64(2)).num_edges == 1
        with pytest.raises(InvalidParameterError, match=dtype):
            FastNetwork.from_csr([0.0, 1.0, 2.0], [1, 0])
        with pytest.raises(InvalidParameterError, match=dtype):
            FastNetwork.from_csr([0, 1, 2], [1.0, 0.0])
        base = graphs.grid_graph(4, 4)
        with pytest.raises(InvalidParameterError, match=dtype):
            base.with_edge_updates([0.5], [3], [], [])
        assert base.with_edge_updates([], [], [], []).num_edges == base.num_edges
        session = DynamicColoring(base, c=2)
        for batch in (np.array([[0.5, 3.7]]), ([0.0], [3.0]), np.array([[True, False]])):
            with pytest.raises(InvalidParameterError, match=dtype):
                session.apply_updates(batch)
        assert session.network.num_edges == base.num_edges
        for empty in ([], np.zeros((0, 2)), ([], [])):
            assert session.apply_updates(empty).edges_added == 0

    def test_custom_identifiers_and_unique_ids(self):
        names = ("a", "b", "c")
        fast = FastNetwork.from_edge_array(
            [0, 1], [1, 2], num_nodes=3, unique_ids=[2, 5, 9], order=names
        )
        assert fast.nodes() == names
        assert fast.unique_id("b") == 5
        assert fast.neighbor_ids[fast.index_of["b"]] == ("a", "c")
