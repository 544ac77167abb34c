"""The fused kernel backend against the numpy steps, adversarially.

The provider the machine can load (the C extension, built on first use) is
held to the numpy steps in :mod:`repro.local_model.kernels._numpy` (the
provider when no C backend resolves) over a battery of adversarial CSR
instances: empty graphs, graphs that are nothing *but* isolated nodes,
empty rows in the middle of the indptr, and palettes small enough to force
the rarely-taken branches (a polynomial step with no collision-free point,
the iterative reduction's no-free-color status).  The polynomial step is
also held to the scalar engines' rule.  The two ``L(G)`` builder steps (the
twin scan and the incidence gather) are held to their numpy steps over
random graphs, and the whole builder to its kernels-off output; so are the
two steps that size their output from the data, the unit-disk sweep
(``geo_pairs``) and the level-view filter (``label_filter``).  The
resolution machinery itself
(env forcing, probe rejection of a corrupt backend) and the C wrappers'
scratch-failure path are covered at the bottom.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import graphs
from repro.core.defective_coloring import PsiSelectionPhase
from repro.graphs.generators import _sweep_arrays
from repro.primitives.numbers import defective_step_color, next_prime
from engine_configs import ScratchFailLibrary

from repro.local_model.kernels import _c_backend, _numpy
from repro.local_model import FastNetwork, build_line_graph_fast, kernels


def _load_backends():
    loaded = []
    try:
        backend = _c_backend.load()
    except Exception:
        backend = None
    if backend is not None:
        loaded.append(backend)
    return loaded


BACKENDS = _load_backends()

if not BACKENDS:  # pragma: no cover - only on machines with no compiler
    pytest.skip(
        "no kernel backend could be loaded on this machine", allow_module_level=True
    )


@pytest.fixture(params=[b.name for b in BACKENDS])
def backend(request):
    for candidate in BACKENDS:
        if candidate.name == request.param:
            return candidate
    raise AssertionError("unreachable")


def csr_from_edges(n, edges):
    """Symmetric CSR from an (u, v) edge list; rows may be empty."""
    neighbors = [[] for _ in range(n)]
    for u, v in edges:
        neighbors[u].append(v)
        neighbors[v].append(u)
    indptr = np.zeros(n + 1, dtype=np.int64)
    flat = []
    for v in range(n):
        row = sorted(neighbors[v])
        indptr[v + 1] = indptr[v] + len(row)
        flat.extend(row)
    return indptr, np.array(flat, dtype=np.int64)


def greedy_colors(n, indptr, indices):
    """A legal 1-based coloring (first-fit) for the stateful kernels."""
    colors = np.zeros(n, dtype=np.int64)
    for v in range(n):
        taken = {colors[u] for u in indices[indptr[v] : indptr[v + 1]]}
        c = 1
        while c in taken:
            c += 1
        colors[v] = c
    return colors


def random_graph(n, p, seed):
    rng = np.random.default_rng(seed)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return csr_from_edges(n, edges)


#: name -> (indptr, indices).
INSTANCES = {
    "empty": (np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64)),
    "all_isolated": (np.zeros(6, dtype=np.int64), np.zeros(0, dtype=np.int64)),
    "path_with_holes": csr_from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 4)]),
    "star_plus_isolated": csr_from_edges(9, [(4, v) for v in range(4)] + [(4, 5), (4, 6)]),
    "triangle": csr_from_edges(3, [(0, 1), (1, 2), (0, 2)]),
    "random40": random_graph(40, 0.12, seed=5),
}


@pytest.fixture(params=sorted(INSTANCES), name="instance")
def _instance(request):
    return INSTANCES[request.param]


def scalar_step(indptr, indices, colors, q, digits):
    """Every node's :func:`defective_step_color`, the scalar engines' rule."""
    return np.array(
        [
            defective_step_color(colors[v], colors[indices[indptr[v] : indptr[v + 1]]], q, digits)
            for v in range(len(indptr) - 1)
        ],
        dtype=np.int64,
    )


class TestPolynomialKernels:
    @pytest.mark.parametrize("q,digits", [(2, 2), (5, 2), (5, 3), (7, 3), (11, 1)])
    def test_defective_step(self, backend, instance, q, digits):
        indptr, indices = instance
        n = len(indptr) - 1
        rng = np.random.default_rng(q * 31 + digits)
        colors = rng.integers(1, q**digits + 1, size=n).astype(np.int64)
        expected = np.zeros(n, dtype=np.int64)
        actual = np.zeros(n, dtype=np.int64)
        _numpy.defective_step(indptr, indices, colors, q, digits, expected)
        backend.defective_step(indptr, indices, colors, q, digits, actual)
        assert np.array_equal(expected, actual)
        assert np.array_equal(expected, scalar_step(indptr, indices, colors, q, digits))

    def test_no_free_point_takes_the_fewest_collisions(self, backend):
        # q=2 on a triangle holding the polynomials 0, x and 1 + x (colors 1,
        # 3, 4): node 0 meets x at 0 and 1 + x at 1, so it has no free point
        # and takes point 0 (one collision, first on the tie).
        indptr, indices = INSTANCES["triangle"]
        colors = np.array([1, 3, 4], dtype=np.int64)
        expected = np.zeros(3, dtype=np.int64)
        actual = np.zeros(3, dtype=np.int64)
        _numpy.defective_step(indptr, indices, colors, 2, 2, expected)
        backend.defective_step(indptr, indices, colors, 2, 2, actual)
        assert expected.tolist() == actual.tolist() == [1, 4, 2]
        assert scalar_step(indptr, indices, colors, 2, 2).tolist() == [1, 4, 2]

    def test_linial_regime_keeps_a_proper_coloring_proper(self, backend, instance):
        # Linial's round: distinct ids as colors, two digits, and a prime
        # q > Delta * (digits - 1) leave every node a collision-free point,
        # so the step maps a proper coloring into a proper one on q**2 colors.
        indptr, indices = instance
        n = len(indptr) - 1
        degree = int(np.diff(indptr).max()) if n else 0
        q = next_prime(max(2, degree + 1, int(np.ceil(np.sqrt(n)))))
        colors = np.arange(1, n + 1, dtype=np.int64)
        actual = np.zeros(n, dtype=np.int64)
        backend.defective_step(indptr, indices, colors, q, 2, actual)
        rows = np.repeat(np.arange(n), np.diff(indptr))
        assert not np.any(actual[rows] == actual[indices])
        assert np.all((actual >= 1) & (actual <= q * q))
        assert np.array_equal(actual, scalar_step(indptr, indices, colors, q, 2))


class TestReductionKernels:
    def test_iter_reduce(self, backend, instance):
        indptr, indices = instance
        n = len(indptr) - 1
        colors = greedy_colors(n, indptr, indices)
        palette = int(colors.max()) + 3 if n else 3
        degree = int(np.diff(indptr).max()) if n else 0
        target = degree + 1
        rounds = max(palette - target, 1)
        expected, actual = colors.copy(), colors.copy()
        se = np.zeros(1, dtype=np.int64)
        sa = np.zeros(1, dtype=np.int64)
        _numpy.iter_reduce(indptr, indices, expected, palette, target, rounds, se)
        backend.iter_reduce(indptr, indices, actual, palette, target, rounds, sa)
        assert np.array_equal(expected, actual)
        assert se[0] == sa[0] == 0

    def test_iter_reduce_no_free_color_status(self, backend):
        # target=1 on a star: the hub has every neighbor on color 1.
        indptr, indices = INSTANCES["star_plus_isolated"]
        n = len(indptr) - 1
        colors = greedy_colors(n, indptr, indices)
        palette = int(colors.max())
        expected, actual = colors.copy(), colors.copy()
        se = np.zeros(1, dtype=np.int64)
        sa = np.zeros(1, dtype=np.int64)
        _numpy.iter_reduce(indptr, indices, expected, palette, 1, palette - 1, se)
        backend.iter_reduce(indptr, indices, actual, palette, 1, palette - 1, sa)
        assert se[0] == sa[0] == 1
        assert np.array_equal(expected, actual)

    def test_kw_reduce_no_free_color_status(self, backend):
        # k=2 on a star: the hub sits at offset k of block 0, and its
        # leaves hold both lower offsets of that block.
        indptr, indices = INSTANCES["star_plus_isolated"]
        colors = np.array([1, 2, 1, 2, 3, 1, 2, 5, 8], dtype=np.int64)
        expected, actual = colors.copy(), colors.copy()
        se = np.zeros(1, dtype=np.int64)
        sa = np.zeros(1, dtype=np.int64)
        _numpy.kw_reduce(indptr, indices, expected, 2, 4, se)
        backend.kw_reduce(indptr, indices, actual, 2, 4, sa)
        assert se[0] == sa[0] == 1
        assert np.array_equal(expected, actual)

    @pytest.mark.parametrize("iterations", [1, 2])
    def test_kw_reduce(self, backend, instance, iterations):
        indptr, indices = instance
        n = len(indptr) - 1
        base = greedy_colors(n, indptr, indices)
        degree = int(np.diff(indptr).max()) if n else 0
        k = degree + 1
        # Spread the legal coloring across several 2k-blocks so recoloring
        # *and* compaction rounds both do real work.
        colors = base + (np.arange(n, dtype=np.int64) % 3) * 2 * k
        expected, actual = colors.copy(), colors.copy()
        se = np.zeros(1, dtype=np.int64)
        sa = np.zeros(1, dtype=np.int64)
        rounds = k * iterations
        _numpy.kw_reduce(indptr, indices, expected, k, rounds, se)
        backend.kw_reduce(indptr, indices, actual, k, rounds, sa)
        assert np.array_equal(expected, actual)
        assert se[0] == sa[0] == 0

    def test_kernel_path_errors_reach_the_caller(self, backend, triangle):
        # A kernel phase's algorithm error is not a kernel failure: a palette
        # violation raised on the kernel path reaches the caller with the
        # reference scheduler's exact text.
        from repro.exceptions import InvalidParameterError
        from repro.local_model import Scheduler
        from repro.local_model.vectorized import VectorizedScheduler
        from repro.primitives.color_reduction import KuhnWattenhoferReductionPhase

        phase = KuhnWattenhoferReductionPhase(palette=4, target=3, input_key="c")
        seeds = {node: {"c": 5} for node in triangle.nodes()}
        with pytest.raises(InvalidParameterError) as expected:
            Scheduler(triangle).run(phase, initial_states=seeds)
        restore = kernels.force_backend(backend, reason="error text test")
        try:
            with pytest.raises(InvalidParameterError) as actual:
                VectorizedScheduler(triangle).run(phase, initial_states=seeds)
        finally:
            restore()
        assert str(actual.value) == str(expected.value)


class TestEdgeRankKernel:
    def test_edge_rank(self, backend, instance):
        indptr, indices = instance
        n = len(indptr) - 1
        rng = np.random.default_rng(n * 7)
        edge_u = rng.integers(0, 10, size=n).astype(np.int64)
        edge_v = rng.integers(0, 10, size=n).astype(np.int64)
        expected_u = np.zeros(n, dtype=np.int64)
        expected_v = np.zeros(n, dtype=np.int64)
        actual_u = np.zeros(n, dtype=np.int64)
        actual_v = np.zeros(n, dtype=np.int64)
        _numpy.edge_rank(indptr, indices, edge_u, edge_v, expected_u, expected_v)
        backend.edge_rank(indptr, indices, edge_u, edge_v, actual_u, actual_v)
        assert np.array_equal(expected_u, actual_u)
        assert np.array_equal(expected_v, actual_v)

    def test_edge_rank_on_a_filtered_csr_counts_same_class_neighbors(self, backend, instance):
        # A CSR masked to equal-label entries (as filtered_by_labels builds
        # it) ranks every node among its same-class incident edges only, by
        # dense index (= unique id).
        indptr, indices = instance
        n = len(indptr) - 1
        rng = np.random.default_rng(n * 7 + 1)
        edge_u = rng.integers(0, 10, size=n).astype(np.int64)
        edge_v = rng.integers(0, 10, size=n).astype(np.int64)
        labels = rng.integers(0, 3, size=n).astype(np.int64)
        rows = np.repeat(np.arange(n), np.diff(indptr))
        keep = labels[rows] == labels[indices]
        masked_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows[keep], minlength=n), out=masked_indptr[1:])
        masked_indices = np.ascontiguousarray(indices[keep])
        expected_u = np.zeros(n, dtype=np.int64)
        expected_v = np.zeros(n, dtype=np.int64)
        for x in range(n):
            for y in indices[indptr[x] : indptr[x + 1]]:
                if labels[y] != labels[x] or y >= x:
                    continue
                expected_u[x] += edge_u[x] in (edge_u[y], edge_v[y])
                expected_v[x] += edge_v[x] in (edge_u[y], edge_v[y])
        for provider in (_numpy, backend):
            actual_u = np.zeros(n, dtype=np.int64)
            actual_v = np.zeros(n, dtype=np.int64)
            provider.edge_rank(masked_indptr, masked_indices, edge_u, edge_v, actual_u, actual_v)
            assert np.array_equal(expected_u, actual_u)
            assert np.array_equal(expected_v, actual_v)


def run_psi(provider, indptr, indices, phi, p):
    """``provider.psi_select`` on the classes ``PsiSelectionPhase`` would pass."""
    n = len(indptr) - 1
    order, class_ptr = PsiSelectionPhase.phi_classes(phi)
    depth = np.full(n, -7, dtype=np.int64)
    psi = np.full(n, -7, dtype=np.int64)
    status = provider.psi_select(indptr, indices, phi, order, class_ptr, p, depth, psi)
    return status, depth, psi


#: phi generators: random classes, neighbours that share their phi, one
#: class for every node, and a strictly increasing chain.
PSI_PHIS = {
    "random": lambda n, rng: rng.integers(1, 6, size=n),
    "equal_neighbors": lambda n, rng: np.arange(n) // 2 + 1,
    "single_class": lambda n, rng: np.full(n, 4),
    "chain": lambda n, rng: np.arange(n) + 1,
}


class TestPsiSelectKernel:
    @pytest.mark.parametrize("p", [1, 2, 3, 300])
    @pytest.mark.parametrize("phis", sorted(PSI_PHIS))
    def test_psi_select(self, backend, instance, phis, p):
        # p=300 is past the C provider's stack counters (heap scratch).
        indptr, indices = instance
        n = len(indptr) - 1
        phi = PSI_PHIS[phis](n, np.random.default_rng(n + p)).astype(np.int64)
        status, depth, psi = run_psi(backend, indptr, indices, phi, p)
        expected = run_psi(_numpy, indptr, indices, phi, p)
        assert status == expected[0] == 0
        assert np.array_equal(depth, expected[1])
        assert np.array_equal(psi, expected[2])
        assert ((psi >= 1) & (psi <= p)).all()

    def test_psi_select_spreads_over_many_colors(self, backend):
        # A star whose hub is last: it sees every leaf's psi, so with p past
        # the stack counters it must still pick the least-used color.
        leaves = 400
        indptr, indices = csr_from_edges(leaves + 1, [(leaves, v) for v in range(leaves)])
        phi = np.r_[np.arange(1, leaves + 1), leaves + 1].astype(np.int64)
        # Leaves are independent, so each takes color 1; give the hub p=300.
        status, depth, psi = run_psi(backend, indptr, indices, phi, 300)
        assert status == 0
        assert psi[leaves] == 2 and depth[leaves] == 1
        expected = run_psi(_numpy, indptr, indices, phi, 300)
        assert np.array_equal(psi, expected[2])
        assert np.array_equal(depth, expected[1])

    @pytest.mark.parametrize("status", [0, 2])
    @pytest.mark.parametrize("kernel", ["psi_select", "kw_reduce"])
    def test_psi_phase_matches_numpy(self, backend, kernel, status):
        # Through the engine, for each kernel that reports a scratch failure
        # as status 2: the kernel path (status 0) and the failure path
        # (status 2, on which the C wrapper runs the numpy step) both write
        # the numpy path's state and charge its metrics.
        from repro import graphs
        from repro.local_model.state_table import StateTable
        from repro.local_model.vectorized import VectorizedScheduler
        from repro.primitives.color_reduction import KuhnWattenhoferReductionPhase

        library = ScratchFailLibrary(backend._lib)
        provider = backend
        if status == 2:
            provider = _c_backend.CExtensionBackend(library, openmp=backend.openmp)

        fast = graphs.random_regular(120, 7, seed=3)
        n = fast.num_nodes
        if kernel == "psi_select":
            phase = PsiSelectionPhase(p=3, phi_key="phi", phi_palette=8)
            seed_key, out_key = "phi", "psi_color"
            seed = np.random.default_rng(5).integers(1, 9, size=n)
        else:
            # A legal coloring spread over three 2k-blocks, as in test_kw_reduce.
            k = fast.max_degree + 1
            seed = greedy_colors(n, fast.indptr, fast.indices)
            seed += (np.arange(n, dtype=np.int64) % 3) * 2 * k
            phase = KuhnWattenhoferReductionPhase(
                palette=int(seed.max()), target=k, input_key="c"
            )
            seed_key, out_key = "c", phase.output_key
        outcomes = []
        for installed in (provider, None):
            restore = kernels.force_backend(installed, reason="status test")
            try:
                table = StateTable(n)
                table.set_ints(seed_key, seed.astype(np.int64))
                table, metrics = VectorizedScheduler(fast).run_table(phase, table)
            finally:
                restore()
            outcomes.append(
                (
                    table.get_ints(out_key).tolist(),
                    (metrics.rounds, metrics.messages, metrics.total_words,
                     metrics.max_message_words),
                    metrics.fallback_phase_names,
                )
            )
        assert library.calls == ([kernel] if status == 2 else [])
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][2] == []

class TestLubyKernels:
    @pytest.fixture
    def luby_state(self, instance):
        indptr, indices = instance
        n = len(indptr) - 1
        palette = 5
        rng = np.random.default_rng(n * 13 + 1)
        taken = (rng.random((n, palette)) < 0.35).astype(np.uint8)
        undecided = np.flatnonzero(rng.random(n) < 0.7).astype(np.int64)
        return indptr, indices, n, palette, taken, undecided

    def test_free_counts(self, backend, luby_state):
        _, _, n, palette, taken, undecided = luby_state
        expected = np.zeros(len(undecided), dtype=np.int64)
        actual = np.zeros(len(undecided), dtype=np.int64)
        _numpy.luby_free_counts(undecided, taken, palette, expected)
        backend.luby_free_counts(undecided, taken, palette, actual)
        assert np.array_equal(expected, actual)

    def test_candidates(self, backend, luby_state):
        _, _, n, palette, taken, undecided = luby_state
        free = np.zeros(len(undecided), dtype=np.int64)
        _numpy.luby_free_counts(undecided, taken, palette, free)
        drawing = free > 0
        lanes = np.ascontiguousarray(undecided[drawing])
        rng = np.random.default_rng(3)
        picks = (rng.integers(0, 10, size=len(lanes)) % np.maximum(free[drawing], 1))
        picks = np.ascontiguousarray(picks, dtype=np.int64)
        expected = np.zeros(n, dtype=np.int64)
        actual = np.zeros(n, dtype=np.int64)
        _numpy.luby_candidates(lanes, picks, taken, palette, expected)
        backend.luby_candidates(lanes, picks, taken, palette, actual)
        assert np.array_equal(expected, actual)

    def test_absorb_and_resolve(self, backend, luby_state):
        indptr, indices, n, palette, taken, undecided = luby_state
        rng = np.random.default_rng(11)
        undecided_mask = np.zeros(n, dtype=np.uint8)
        undecided_mask[undecided] = 1
        decided = np.flatnonzero(undecided_mask == 0).astype(np.int64)
        final = np.zeros(n, dtype=np.int64)
        final[decided] = rng.integers(1, palette + 1, size=len(decided))
        announce = decided
        expected_taken, actual_taken = taken.copy(), taken.copy()
        _numpy.luby_absorb(
            announce, indptr, indices, final, undecided_mask, expected_taken
        )
        backend.luby_absorb(
            announce, indptr, indices, final, undecided_mask, actual_taken
        )
        assert np.array_equal(expected_taken, actual_taken)

        candidate = np.zeros(n, dtype=np.int64)
        candidate[undecided] = rng.integers(0, palette + 1, size=len(undecided))
        expected = np.zeros(len(undecided), dtype=np.uint8)
        actual = np.zeros(len(undecided), dtype=np.uint8)
        _numpy.luby_resolve(
            undecided, indptr, indices, candidate, expected_taken, expected
        )
        backend.luby_resolve(
            undecided, indptr, indices, candidate, actual_taken, actual
        )
        assert np.array_equal(expected, actual)


def builder_steps(provider, indptr, indices):
    """``entry_twins`` then ``line_gather`` of ``provider`` on an ascending-row CSR.

    The gather's inputs are derived as ``build_line_graph_fast`` derives
    them; returns ``(eid, own, line_indptr, line_indices)``.
    """
    eid = np.full(len(indices), -7, dtype=np.int64)
    own = np.full(len(indices), -7, dtype=np.int64)
    provider.entry_twins(indptr, indices, eid, own)
    chunk_rows = indices[own.reshape(-1, 2)[:, ::-1].ravel()]
    sizes = (np.diff(indptr)[chunk_rows] - 1).reshape(-1, 2).sum(axis=1)
    line_indptr = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=line_indptr[1:])
    out = np.full(line_indptr[-1], -7, dtype=np.int64)
    provider.line_gather(indptr, chunk_rows, own, eid, line_indptr, out)
    return eid, own, line_indptr, out


@st.composite
def ascending_csrs(draw):
    """An ascending-row CSR of a random simple graph (isolated nodes allowed)."""
    n = draw(st.integers(0, 24))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return csr_from_edges(n, edges)


@st.composite
def adjacency_networks(draw):
    """A ``from_adjacency`` graph with shuffled, non-integer identifiers."""
    indptr, indices = draw(ascending_csrs())
    n = len(indptr) - 1
    names = draw(st.permutations([f"v{i}" for i in range(n)]))
    return FastNetwork.from_adjacency(
        {
            names[v]: [names[u] for u in indices[indptr[v] : indptr[v + 1]]]
            for v in range(n)
        }
    )


def line_graph_arrays(network):
    line = build_line_graph_fast(network)
    meta = line.line_meta
    return [line.indptr, line.indices, line.degrees, line.unique_ids, meta.edge_u, meta.edge_v]


class TestLineGraphBuilderKernels:
    """The twin scan and the incidence gather, the two ``L(G)`` builder steps."""

    def assert_steps_match(self, backend, indptr, indices):
        expected = builder_steps(_numpy, indptr, indices)
        actual = builder_steps(backend, indptr, indices)
        for want, got in zip(expected, actual):
            assert np.array_equal(want, got)
        eid, own = expected[0], expected[1]
        assert np.array_equal(eid[own], np.repeat(np.arange(len(own) // 2), 2))

    def test_builder_steps(self, backend, instance):
        indptr, indices = instance
        self.assert_steps_match(backend, indptr, indices)

    @settings(max_examples=60, deadline=None)
    @given(csr=ascending_csrs())
    def test_builder_steps_on_random_graphs(self, csr):
        for backend in BACKENDS:
            self.assert_steps_match(backend, *csr)

    @settings(max_examples=30, deadline=None)
    @given(network=adjacency_networks())
    def test_builder_steps_on_adjacency_graphs(self, network):
        g = network.ascending_rows()
        for backend in BACKENDS:
            self.assert_steps_match(backend, g.indptr, g.indices)

    def assert_builder_matches_kernels_off(self, backend, network):
        arrays = []
        for provider in (backend, None):
            restore = kernels.force_backend(provider, reason="provider test")
            try:
                arrays.append(line_graph_arrays(network))
            finally:
                restore()
        for on, off in zip(*arrays):
            assert on.dtype == off.dtype and np.array_equal(on, off)

    @settings(max_examples=30, deadline=None)
    @given(network=adjacency_networks())
    def test_line_graph_is_identical_with_kernels_off(self, network):
        for backend in BACKENDS:
            self.assert_builder_matches_kernels_off(backend, network)

    @pytest.mark.parametrize(
        "network",
        [
            graphs.random_regular(600, 8, seed=2),  # 2400 edges: several gather chunks
            graphs.star_graph(9),
            FastNetwork.from_adjacency({}),
            FastNetwork.from_adjacency({1: [], 2: []}),
        ],
        ids=["regular", "star", "empty", "isolated"],
    )
    def test_line_graph_is_identical_under_each_provider(self, backend, network):
        self.assert_builder_matches_kernels_off(backend, network)

    def test_wrappers_reject_mismatched_sizes(self, backend):
        # The C bodies write through the output pointers, so a short buffer
        # must be refused before the call.
        indptr, indices = INSTANCES["triangle"]
        eid, own, line_indptr, out = builder_steps(_numpy, indptr, indices)
        chunk_rows = indices[own.reshape(-1, 2)[:, ::-1].ravel()]
        with pytest.raises(ValueError):
            backend.entry_twins(indptr, indices, eid[:-1], own)
        with pytest.raises(ValueError):
            backend.line_gather(indptr, chunk_rows, own, eid, line_indptr, out[:-1])
        with pytest.raises(ValueError):
            backend.line_gather(indptr, chunk_rows[:-2], own[:-2], eid, line_indptr, out)

    def test_twin_scan_scratch_failure_runs_the_numpy_step(self, backend):
        # Status 2 (no cursor) makes the wrapper run the numpy step itself.
        library = ScratchFailLibrary(backend._lib)
        failing = _c_backend.CExtensionBackend(library, openmp=backend.openmp)
        indptr, indices = INSTANCES["random40"]
        expected = builder_steps(_numpy, indptr, indices)
        actual = builder_steps(failing, indptr, indices)
        assert library.calls == ["entry_twins"]
        for want, got in zip(expected, actual):
            assert np.array_equal(want, got)


class TestSizedOutputKernels:
    """``geo_pairs`` and ``label_filter``: steps that size their output from the data.

    ``tests/test_local_network.py`` holds ``label_filter`` to a Python oracle.
    """

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 400),
        radius=st.floats(min_value=0.001, max_value=1.5),
        seed=st.integers(0, 2**31),
    )
    def test_geo_pairs_entry_for_entry(self, n, radius, seed):
        args = _sweep_arrays(np.random.default_rng(seed).random((n, 2)), radius)
        expected = _numpy.geo_pairs(*args)
        for backend in BACKENDS:
            actual = backend.geo_pairs(*args)
            for want, got in zip(expected, actual):
                assert got.dtype == want.dtype and np.array_equal(want, got)

    def test_geo_pairs_on_a_vertex_workload_sized_graph(self, backend):
        # n = 20000 at mean degree 24: many cells, several fill chunks.
        n = 20_000
        args = _sweep_arrays(np.random.default_rng(7).random((n, 2)), (24 / (np.pi * n)) ** 0.5)
        for want, got in zip(_numpy.geo_pairs(*args), backend.geo_pairs(*args)):
            assert np.array_equal(want, got)

    def test_wrappers_reject_mismatched_sizes(self, backend):
        x, y, cx, cy, start, cells, radius_sq, by_cell = _sweep_arrays(
            np.random.default_rng(1).random((50, 2)), 0.2
        )
        with pytest.raises(ValueError):
            backend.geo_pairs(x, y[:-1], cx, cy, start, cells, radius_sq, by_cell)
        with pytest.raises(ValueError):
            backend.geo_pairs(x, y, cx, cy, start[:-1], cells, radius_sq, by_cell)
        with pytest.raises(ValueError):  # coordinates must be float64
            backend.geo_pairs(x.astype(np.float32), y, cx, cy, start, cells, radius_sq, by_cell)
        indptr, indices = INSTANCES["triangle"]
        with pytest.raises(ValueError):
            backend.label_filter(indptr, indices, np.ones(2, dtype=np.int64))


class TestResolutionMachinery:
    def test_probe_accepts_loaded_backends(self, backend):
        assert kernels._probe(backend) is True

    def test_probe_rejects_corrupt_backend(self, backend):
        class Corrupt:
            name = "corrupt"

            def __getattr__(self, attr):
                return getattr(backend, attr)

            def defective_step(self, indptr, indices, colors, q, digits, out):
                backend.defective_step(indptr, indices, colors, q, digits, out)
                out += 1  # a miscompiled kernel

        assert kernels._probe(Corrupt()) is False

    def test_probe_rejects_corrupt_psi_select(self, backend):
        class Corrupt:
            name = "corrupt"

            def __getattr__(self, attr):
                return getattr(backend, attr)

            def psi_select(self, indptr, indices, phi, order, class_ptr, p, depth, psi):
                status = backend.psi_select(
                    indptr, indices, phi, order, class_ptr, p, depth, psi
                )
                psi[:] = 1  # ignores the counts of lower neighbors
                return status

        assert kernels._probe(Corrupt()) is False

    @pytest.mark.parametrize("kernel", ["geo_pairs", "label_filter"])
    def test_probe_rejects_corrupt_sized_output(self, backend, kernel):
        class Corrupt:
            name = "corrupt"

            def __getattr__(self, attr):
                return getattr(backend, attr)

        def reversed_output(*args):
            first, second = getattr(backend, kernel)(*args)
            return first, second[::-1].copy()  # right sizes, wrong order

        corrupt = Corrupt()
        setattr(corrupt, kernel, reversed_output)
        assert kernels._probe(corrupt) is False

    def test_env_forced_cext(self, monkeypatch):
        if not any(b.name == "cext" for b in BACKENDS):
            pytest.skip("no C toolchain on this machine")
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "cext")
        kernels.reset()
        try:
            assert kernels.backend_name() == "cext"
        finally:
            kernels.reset()

    def test_c_backend_artifact_cache_reloads(self):
        if not any(b.name == "cext" for b in BACKENDS):
            pytest.skip("no C toolchain on this machine")
        # Second load hits the hash-keyed artifact, no recompilation needed.
        first = _c_backend.load()
        second = _c_backend.load()
        assert first is not None and second is not None

    def test_resolve_compiles_the_source_read_at_import(self, monkeypatch, tmp_path):
        # A source edited under a running process must not reach the loaded
        # library: its wrappers and signatures belong to the imported text.
        if not any(b.name == "cext" for b in BACKENDS):
            pytest.skip("no C toolchain on this machine")
        snapshot = _c_backend._SOURCE_TEXT
        edited = snapshot.replace(b"count_u++;", b"count_u += 2;")
        assert edited != snapshot
        source = tmp_path / "kernels.c"
        source.write_bytes(edited)
        monkeypatch.setattr(_c_backend, "_SOURCE", source)
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "cext")
        kernels.reset()
        try:
            assert kernels.backend_reason() == "cext (probed ok)"
        finally:
            kernels.reset()

    def test_build_compiles_a_copy_of_the_snapshot_beside_the_artifact(
        self, monkeypatch, tmp_path
    ):
        compiler = _c_backend._compiler()
        if compiler is None:
            pytest.skip("no C toolchain on this machine")
        monkeypatch.setattr(_c_backend, "_build_dir", lambda: tmp_path)
        artifact = _c_backend._compile(_c_backend._SOURCE_TEXT, compiler, use_openmp=False)
        assert artifact is not None
        assert artifact.with_suffix(".c").read_bytes() == _c_backend._SOURCE_TEXT
        # The tag depends on the source bytes and the flags only.
        assert _c_backend._compile(_c_backend._SOURCE_TEXT, compiler, use_openmp=False) == artifact
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            artifact.with_suffix(".c").name,
            artifact.name,
        ]

    def test_c_backend_rejects_wrong_dtype(self):
        cext = next((b for b in BACKENDS if b.name == "cext"), None)
        if cext is None:
            pytest.skip("no C toolchain on this machine")
        indptr = np.zeros(2, dtype=np.int32)  # wrong dtype
        indices = np.zeros(0, dtype=np.int64)
        colors = np.ones(1, dtype=np.int64)
        out = np.zeros(1, dtype=np.int64)
        with pytest.raises(ValueError):
            cext.defective_step(indptr, indices, colors, 3, 1, out)
