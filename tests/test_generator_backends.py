"""The ``backend="fast"`` generator seam and the array constructors.

Three contracts are locked down here:

1. **Bit-identity of the deterministic families.**  For path / cycle / grid /
   hypercube / complete / star / clique-with-pendants, the fast backend must
   produce the *same* graph as the legacy backend down to the node
   identifiers, the unique ids and the CSR arrays (hypothesis-sampled sizes).
2. **Invariants of the random families.**  The fast samplers follow their own
   documented seed streams, so they cannot be compared edge-for-edge against
   networkx; instead the exact guarantees are asserted: exact degrees for the
   regular families, simplicity and symmetry everywhere (via the validating
   ``to_network()`` round-trip), and seed-reproducibility.
3. **The Network-free entry path.**  A golden scenario enters through
   ``FastNetwork.from_edge_array``, runs the full Legal-Color pipeline on the
   vectorized engine, verifies through the array oracles -- and the legacy
   ``Network`` is provably never materialized (``fast.network`` stays
   ``None``); the colors equal those of the identically-shaped legacy-built
   run.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import graphs
from repro.core import color_vertices
from repro.exceptions import InvalidParameterError
from repro.local_model.fast_network import FastNetwork, as_network, fast_view
from repro.local_model.network import Network
from repro.verification import assert_legal_vertex_coloring

QUICK_PROPERTY = settings(
    max_examples=20, suppress_health_check=[HealthCheck.too_slow], deadline=None
)


def assert_bit_identical(fast: FastNetwork, legacy: Network) -> None:
    """The fast-built view equals the compiled view of the legacy network."""
    compiled = fast_view(legacy)
    assert isinstance(fast, FastNetwork) and isinstance(legacy, Network)
    assert fast.order == compiled.order
    assert list(fast.unique_ids) == list(compiled.unique_ids)
    assert list(fast.indptr) == list(compiled.indptr)
    assert list(fast.indices) == list(compiled.indices)
    assert fast.max_degree == compiled.max_degree
    assert fast.num_nodes == compiled.num_nodes


DETERMINISTIC_FAMILIES = [
    ("path", lambda size, backend: graphs.path_graph(size, backend=backend)),
    ("cycle", lambda size, backend: graphs.cycle_graph(max(3, size), backend=backend)),
    ("complete", lambda size, backend: graphs.complete_graph(size, backend=backend)),
    ("star", lambda size, backend: graphs.star_graph(size, backend=backend)),
    (
        "grid",
        lambda size, backend: graphs.grid_graph(size, size + 2, backend=backend),
    ),
    (
        "hypercube",
        lambda size, backend: graphs.hypercube_graph(
            1 + size % 6, backend=backend
        ),
    ),
    (
        "clique_with_pendants",
        lambda size, backend: graphs.clique_with_pendants(size, backend=backend),
    ),
]


class TestDeterministicFamiliesBitIdentical:
    @pytest.mark.parametrize("name,maker", DETERMINISTIC_FAMILIES)
    @QUICK_PROPERTY
    @given(size=st.integers(min_value=1, max_value=40))
    def test_fast_equals_legacy(self, name, maker, size):
        assert_bit_identical(maker(size, "fast"), maker(size, "legacy"))

    def test_to_network_materializes_the_identical_network(self):
        fast = graphs.grid_graph(4, 5, backend="fast")
        legacy = graphs.grid_graph(4, 5, backend="legacy")
        materialized = fast.to_network()
        assert materialized.nodes() == legacy.nodes()
        assert materialized.edges() == legacy.edges()
        assert materialized.unique_ids() == legacy.unique_ids()

    def test_unknown_backend_rejected(self):
        with pytest.raises(InvalidParameterError):
            graphs.path_graph(4, backend="numpy")


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
                graphs.random_regular(n, degree, seed=seed, backend="fast")
            return
        network = graphs.random_regular(n, degree, seed=seed, backend="fast")
        degrees = np.asarray(network.degrees_np)
        assert (degrees == degree).all()
        # to_network() re-validates simplicity and symmetry from scratch.
        assert network.to_network().num_edges == n * degree // 2
        again = graphs.random_regular(n, degree, seed=seed, backend="fast")
        assert list(again.indices) == list(network.indices)

    @QUICK_PROPERTY
    @given(
        side=st.integers(min_value=1, max_value=24),
        seed=st.integers(min_value=0, max_value=2**31),
        data=st.data(),
    )
    def test_bipartite_regular_exact_degree_and_bipartite(self, side, seed, data):
        degree = data.draw(st.integers(min_value=0, max_value=side))
        network = graphs.random_bipartite_regular(
            side, degree, seed=seed, backend="fast"
        )
        degrees = np.asarray(network.degrees_np)
        assert (degrees == degree).all()
        materialized = network.to_network()
        for u, v in materialized.edges():
            assert u[0] != v[0]
        again = graphs.random_bipartite_regular(
            side, degree, seed=seed, backend="fast"
        )
        assert list(again.indices) == list(network.indices)

    @QUICK_PROPERTY
    @given(
        n=st.integers(min_value=1, max_value=40),
        probability=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_erdos_renyi_simple_and_reproducible(self, n, probability, seed):
        network = graphs.erdos_renyi(n, probability, seed=seed, backend="fast")
        assert network.num_nodes == n
        network.to_network()  # validates simplicity and symmetry
        again = graphs.erdos_renyi(n, probability, seed=seed, backend="fast")
        assert list(again.indices) == list(network.indices)
        if probability >= 1.0 and n > 1:
            assert network.num_edges == n * (n - 1) // 2

    def test_fast_seed_stream_is_distinct_but_same_distribution_knobs(self):
        fast = graphs.random_regular(32, 4, seed=9, backend="fast")
        legacy = graphs.random_regular(32, 4, seed=9, backend="legacy")
        # Different documented streams, identical guarantees.
        assert fast.num_edges == legacy.num_edges == 64
        assert fast.max_degree == legacy.max_degree == 4

    def test_power_law_fast_is_the_compiled_legacy_graph(self):
        fast = graphs.power_law_graph(30, 3, seed=4, backend="fast")
        legacy = graphs.power_law_graph(30, 3, seed=4, backend="legacy")
        assert_bit_identical(fast, legacy)


class TestBipartiteExactDegreeRegression:
    """The pre-fix sampler dropped colliding matching edges after 200 tries.

    ``degree == side`` forces every later matching to collide with the
    earlier ones (the only valid result is the complete bipartite graph), so
    these parameters deterministically exercised the dropped-edge path.
    """

    @pytest.mark.parametrize("backend", ["legacy", "fast"])
    @pytest.mark.parametrize("side,degree", [(6, 6), (10, 9), (12, 12), (16, 8)])
    def test_exact_degree_guarantee(self, backend, side, degree):
        for seed in range(3):
            network = graphs.random_bipartite_regular(
                side, degree, seed=seed, backend=backend
            )
            network = as_network(network)
            assert all(
                network.degree(node) == degree for node in network.nodes()
            ), f"degree violated at seed {seed}"

    def test_complete_bipartite_forced(self):
        network = as_network(
            graphs.random_bipartite_regular(5, 5, seed=1, backend="legacy")
        )
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
            network = graphs.random_bipartite_regular(
                side, degree, seed=seed, backend="fast"
            )
            assert (np.asarray(network.degrees_np) == degree).all()
            materialized = network.to_network()  # validates simple + symmetric
            for u, v in materialized.edges():
                assert u[0] != v[0]
            again = graphs.random_bipartite_regular(
                side, degree, seed=seed, backend="fast"
            )
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
                graphs.barabasi_albert(n, attachment, seed=seed, backend="fast")
            return
        network = graphs.barabasi_albert(n, attachment, seed=seed, backend="fast")
        assert network.network is None
        assert network.num_edges == attachment * (n - attachment)
        degrees = np.asarray(network.degrees_np)
        # Every arriving vertex attaches to `attachment` distinct targets.
        assert (degrees[attachment:] >= attachment).all()
        network.to_network()  # validates simplicity and symmetry
        again = graphs.barabasi_albert(n, attachment, seed=seed, backend="fast")
        assert list(again.indices) == list(network.indices)

    def test_barabasi_albert_legacy_backend_matches_networkx_counts(self):
        legacy = graphs.barabasi_albert(40, 3, seed=1, backend="legacy")
        assert legacy.num_edges == 3 * 37
        assert legacy.num_nodes == 40

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
        network = graphs.planted_degree_sequence(degrees, seed=seed, backend="fast")
        assert network.network is None
        assert (np.asarray(network.degrees_np) == degrees).all()
        network.to_network()  # validates simplicity and symmetry
        again = graphs.planted_degree_sequence(degrees, seed=seed, backend="fast")
        assert list(again.indices) == list(network.indices)

    def test_planted_sequence_legacy_shares_the_fast_stream(self):
        degrees = graphs.heavy_tailed_degree_sequence(50, seed=3)
        fast = graphs.planted_degree_sequence(degrees, seed=1, backend="fast")
        legacy = graphs.planted_degree_sequence(degrees, seed=1, backend="legacy")
        assert_bit_identical(fast, legacy)

    def test_planted_sequence_validation(self):
        with pytest.raises(InvalidParameterError, match="even"):
            graphs.planted_degree_sequence([1, 1, 1], backend="fast")
        with pytest.raises(InvalidParameterError, match="degree"):
            graphs.planted_degree_sequence([5, 1, 1, 1, 0], backend="fast")
        with pytest.raises(InvalidParameterError, match="non-empty"):
            graphs.planted_degree_sequence([], backend="fast")

    @QUICK_PROPERTY
    @given(
        n=st.integers(min_value=1, max_value=50),
        radius=st.floats(min_value=0.01, max_value=1.5),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_random_geometric_matches_brute_force(self, n, radius, seed):
        network = graphs.random_geometric(n, radius, seed=seed, backend="fast")
        assert network.network is None
        network.to_network()  # validates simplicity and symmetry
        # The documented point stream: the generator's first draws.
        points = np.random.default_rng(seed).random((n, 2))
        gaps = points[:, None, :] - points[None, :, :]
        within = (gaps**2).sum(axis=-1) <= radius * radius
        expected = int(within.sum() - n) // 2
        assert network.num_edges == expected
        again = graphs.random_geometric(n, radius, seed=seed, backend="fast")
        assert list(again.indices) == list(network.indices)

    def test_random_geometric_legacy_backend(self):
        legacy = graphs.random_geometric(30, 0.3, seed=2, backend="legacy")
        assert legacy.num_nodes == 30
        with pytest.raises(InvalidParameterError, match="radius"):
            graphs.random_geometric(10, 0.0)

    @QUICK_PROPERTY
    @given(
        ports=st.integers(min_value=1, max_value=24),
        seed=st.integers(min_value=0, max_value=2**31),
        data=st.data(),
    )
    def test_bipartite_switch_biregular(self, ports, seed, data):
        demand = data.draw(st.integers(min_value=0, max_value=ports))
        network = graphs.bipartite_switch(ports, demand, seed=seed, backend="fast")
        assert network.network is None
        assert (np.asarray(network.degrees_np) == demand).all()
        materialized = network.to_network()
        for u, v in materialized.edges():
            assert {u[0], v[0]} == {"in", "out"}
        again = graphs.bipartite_switch(ports, demand, seed=seed, backend="fast")
        assert list(again.indices) == list(network.indices)

    def test_bipartite_switch_legacy_shares_the_fast_stream(self):
        fast = graphs.bipartite_switch(12, 5, seed=7, backend="fast")
        legacy = graphs.bipartite_switch(12, 5, seed=7, backend="legacy")
        assert_bit_identical(fast, legacy)
        assert legacy.nodes()[0] == ("in", 0)


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

    def test_vectorized_run_never_builds_a_network(self):
        u, v, n = self._edge_arrays()
        fast = FastNetwork.from_edge_array(u, v, num_nodes=n)
        result = color_vertices(fast, c=2, quality="superlinear", engine="vectorized")
        assert result.metrics.fallback_phase_names == []
        assert_legal_vertex_coloring(fast, result.color_column)
        # The whole pipeline -- build, run, verify -- stayed Network-free.
        assert fast.network is None

    def test_colors_match_the_legacy_built_graph(self):
        u, v, n = self._edge_arrays()
        fast = FastNetwork.from_edge_array(u, v, num_nodes=n)
        legacy = Network.from_edges(zip(u.tolist(), v.tolist()))
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

    def test_from_edge_array_deduplicates_like_network(self):
        fast = FastNetwork.from_edge_array(
            [0, 1, 1, 2], [1, 0, 2, 1], num_nodes=4
        )
        legacy = Network({0: [1, 1], 1: [0, 2], 2: [1], 3: []})
        assert_bit_identical(fast, legacy)

    def test_from_csr_roundtrip_and_validation(self):
        base = graphs.grid_graph(3, 4, backend="fast")
        rebuilt = FastNetwork.from_csr(list(base.indptr), list(base.indices))
        assert list(rebuilt.indices) == list(base.indices)
        assert rebuilt.order == base.order
        with pytest.raises(InvalidParameterError, match="symmetric"):
            FastNetwork.from_csr([0, 1, 1], [1])
        with pytest.raises(InvalidParameterError, match="strictly increasing"):
            FastNetwork.from_csr([0, 2, 4], [1, 1, 0, 0])
        with pytest.raises(InvalidParameterError, match="self-loops"):
            FastNetwork.from_csr([0, 1, 2], [0, 1])

    def test_custom_identifiers_and_unique_ids(self):
        names = ("a", "b", "c")
        fast = FastNetwork.from_edge_array(
            [0, 1], [1, 2], num_nodes=3, unique_ids=[2, 5, 9], order=names
        )
        assert fast.nodes() == names
        assert fast.unique_id("b") == 5
        materialized = fast.to_network()
        assert materialized.neighbors("b") == ("a", "c")
