"""Property-based tests (hypothesis) for the core invariants.

Random graphs are generated from random edge sets; for every generated input
the tests check the paper's structural facts (Lemma 5.1, Lemma 3.6), the
simulator's accounting, and the legality / defect / palette guarantees of the
colorings produced by the primitives and by the full algorithms.
"""

from __future__ import annotations

from typing import List, Tuple

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import numpy as np

import graph_oracles
from engine_configs import ARRAY_CONFIGS, engine_config

from repro.core import color_edges, run_defective_color
from repro.experiments import ExperimentRunner, GraphSpec, Scenario
from repro.graphs.properties import (
    has_neighborhood_independence_at_most,
    neighborhood_independence,
)
from repro.local_model import (
    FastNetwork,
    Scheduler,
    VectorizedScheduler,
    build_line_graph_fast,
    fast_view,
)
from repro.local_model.messages import payload_size_words
from repro.primitives.kuhn_defective import defective_coloring_pipeline
from repro.primitives.color_reduction import delta_plus_one_pipeline
from repro.primitives.numbers import base_q_digits, log_star, next_prime, poly_eval
from repro.primitives.linial import linial_final_palette, linial_schedule
from repro.verification.coloring import (
    assert_legal_edge_coloring,
    assert_legal_vertex_coloring,
    coloring_defect,
    max_color,
)

# --------------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------------- #


@st.composite
def random_edge_lists(draw, max_nodes: int = 12) -> Tuple[int, List[Tuple[int, int]]]:
    """A random simple graph given as (num_nodes, edge list)."""
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(
        st.lists(st.sampled_from(possible), unique=True, max_size=len(possible))
    )
    return n, edges


def build_network(n: int, edges: List[Tuple[int, int]]) -> FastNetwork:
    adjacency = {node: [] for node in range(n)}
    for u, v in edges:
        adjacency[u].append(v)
    return FastNetwork.from_adjacency(adjacency)


SLOW = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# --------------------------------------------------------------------------- #
# Structural invariants
# --------------------------------------------------------------------------- #


class TestStructuralProperties:
    @SLOW
    @given(random_edge_lists())
    def test_line_graphs_always_have_independence_at_most_two(self, data):
        n, edges = data
        network = build_network(n, edges)
        line = build_line_graph_fast(network)
        assert has_neighborhood_independence_at_most(line, 2)

    @SLOW
    @given(random_edge_lists())
    def test_line_graph_size_and_degree_bounds(self, data):
        n, edges = data
        network = build_network(n, edges)
        line = build_line_graph_fast(network)
        assert line.num_nodes == network.num_edges
        if network.max_degree >= 1:
            assert line.max_degree <= 2 * (network.max_degree - 1)

    @SLOW
    @given(random_edge_lists(), st.integers(min_value=0, max_value=5))
    def test_induced_subgraphs_inherit_bounded_independence(self, data, c):
        # Lemma 3.6: the family is closed under vertex-induced subgraphs.
        n, edges = data
        network = build_network(n, edges)
        if not has_neighborhood_independence_at_most(network, c):
            return
        subset = [node for node in network.nodes() if node % 2 == 0]
        induced = graph_oracles.induced_subgraph(network, subset)
        assert has_neighborhood_independence_at_most(induced, c)

    @SLOW
    @given(random_edge_lists())
    def test_neighborhood_independence_at_most_max_degree(self, data):
        n, edges = data
        network = build_network(n, edges)
        assert neighborhood_independence(network) <= max(network.max_degree, 0)


# --------------------------------------------------------------------------- #
# Number-theoretic invariants
# --------------------------------------------------------------------------- #


class TestPrimitivesProperties:
    @given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=2, max_value=97))
    def test_base_q_digits_round_trip(self, value, q):
        digits = base_q_digits(value, q, num_digits=8) if value < q**8 else None
        if digits is None:
            return
        assert sum(d * q**i for i, d in enumerate(digits)) == value
        assert all(0 <= d < q for d in digits)

    @given(st.integers(min_value=2, max_value=5000))
    def test_next_prime_within_bertrand_window(self, value):
        prime = next_prime(value)
        assert value <= prime < 2 * value

    @given(st.integers(min_value=2, max_value=10**9))
    def test_log_star_is_tiny_and_monotone_under_log(self, value):
        assert 0 <= log_star(value) <= 6
        assert log_star(value) >= log_star(max(2, value // 2)) - 1

    @given(
        st.lists(st.integers(min_value=0, max_value=10), min_size=1, max_size=4),
        st.integers(min_value=0, max_value=10),
    )
    def test_poly_eval_is_linear_in_constant_term(self, coefficients, point):
        q = 11
        shifted = [coefficients[0] + 1] + coefficients[1:]
        base_value = poly_eval(coefficients, point, q)
        shifted_value = poly_eval(shifted, point, q)
        assert shifted_value == (base_value + 1) % q

    @given(st.integers(min_value=1, max_value=10**6), st.integers(min_value=1, max_value=64))
    def test_linial_palette_bound(self, palette, delta):
        final = linial_final_palette(palette, delta)
        assert final <= palette
        assert final <= 9 * (delta + 2) ** 2 or final <= palette

    @given(st.integers(min_value=2, max_value=10**6), st.integers(min_value=1, max_value=32))
    def test_linial_schedule_primes_are_valid(self, palette, delta):
        schedule, _ = linial_schedule(palette, delta)
        for q, digits, before in schedule:
            assert q > delta * (digits - 1)
            assert q * q < before


# --------------------------------------------------------------------------- #
# Simulator invariants
# --------------------------------------------------------------------------- #


class TestSimulatorProperties:
    @given(
        st.recursive(
            st.one_of(st.integers(), st.text(max_size=5), st.none(), st.booleans()),
            lambda children: st.one_of(
                st.lists(children, max_size=4),
                st.dictionaries(st.text(max_size=3), children, max_size=3),
            ),
            max_leaves=10,
        )
    )
    def test_payload_size_is_positive_and_additive_over_lists(self, payload):
        size = payload_size_words(payload)
        assert size >= 1
        assert payload_size_words([payload, payload]) == 2 * size


# --------------------------------------------------------------------------- #
# Coloring invariants on random graphs
# --------------------------------------------------------------------------- #


class TestColoringProperties:
    @SLOW
    @given(random_edge_lists(max_nodes=10))
    def test_delta_plus_one_pipeline_always_legal(self, data):
        n, edges = data
        network = build_network(n, edges)
        pipeline, palette = delta_plus_one_pipeline(
            n=network.num_nodes, degree_bound=max(1, network.max_degree), output_key="c"
        )
        result = Scheduler(network).run(pipeline)
        colors = result.extract("c")
        assert_legal_vertex_coloring(network, colors)
        assert max_color(colors) <= palette

    @SLOW
    @given(random_edge_lists(max_nodes=10), st.integers(min_value=1, max_value=4))
    def test_defective_pipeline_respects_defect_and_palette(self, data, defect):
        n, edges = data
        network = build_network(n, edges)
        pipeline, palette = defective_coloring_pipeline(
            n=network.num_nodes,
            degree_bound=max(1, network.max_degree),
            target_defect=defect,
            output_key="d",
        )
        result = Scheduler(network).run(pipeline)
        colors = result.extract("d")
        assert coloring_defect(network, colors) <= defect
        assert max_color(colors) <= palette

    @SLOW
    @given(random_edge_lists(max_nodes=9), st.integers(min_value=2, max_value=4))
    def test_defective_color_procedure_defect_bound(self, data, p):
        n, edges = data
        network = build_network(n, edges)
        line = build_line_graph_fast(network)
        if line.num_nodes == 0:
            return
        Lambda = max(1, line.max_degree)
        if p > Lambda:
            return
        colors, info, _ = run_defective_color(line, b=1, p=p, c=2, Lambda=Lambda)
        assert coloring_defect(line, colors) <= info.psi_defect_bound
        assert set(colors.values()) <= set(range(1, p + 1))

    @SLOW
    @given(random_edge_lists(max_nodes=9))
    def test_edge_coloring_always_legal(self, data):
        n, edges = data
        network = build_network(n, edges)
        if network.num_edges == 0:
            return
        result = color_edges(network, quality="superlinear", route="direct")
        assert_legal_edge_coloring(network, result.edge_colors)
        assert result.colors_used <= result.palette


# --------------------------------------------------------------------------- #
# CSR line-graph builder == dict-built oracle
# --------------------------------------------------------------------------- #


class TestFastLineGraphBuilder:
    """build_line_graph_fast reproduces the dict-built line graph exactly."""

    @SLOW
    @given(random_edge_lists(), st.booleans())
    def test_builder_matches_legacy_constructor(self, data, scramble_ids):
        n, edges = data
        network = build_network(n, edges)
        if scramble_ids:
            # Non-monotone unique ids: identifier order and node_sort_key
            # order disagree, and the line graph must follow unique-id
            # (pair-key) order, the order Corollary 5.4 ranks edges by.
            network = FastNetwork.from_adjacency(
                graph_oracles.adjacency(network),
                unique_ids={node: n + 1 - network.unique_id(node) for node in network.nodes()},
            )
        graph_oracles.assert_line_graph_matches(network)

    @SLOW
    @given(random_edge_lists())
    def test_edge_mode_defective_color_identical_on_all_engines(self, data):
        from repro.core.defective_coloring import defective_color_pipeline

        n, edges = data
        network = build_network(n, edges)
        if network.num_edges == 0:
            return
        line = build_line_graph_fast(network)
        Lambda = max(2, network.max_degree)
        pipeline, _ = defective_color_pipeline(
            n=line.num_nodes, b=1, p=2, Lambda=Lambda, c=2, mode="edge"
        )
        reference = Scheduler(line).run(pipeline)
        for config in ARRAY_CONFIGS:
            with engine_config(config):
                candidate = VectorizedScheduler(line).run(pipeline)
            assert candidate.states == reference.states
            assert candidate.metrics.summary() == reference.metrics.summary()


# --------------------------------------------------------------------------- #
# CSR masking: FastNetwork.filtered == the dict-filtered oracle
# --------------------------------------------------------------------------- #


def _assert_same_filtered(derived: FastNetwork, expected: FastNetwork) -> None:
    """A CSR-masked view and a dict-rebuilt graph are the same graph."""
    assert derived.num_nodes == expected.num_nodes
    assert derived.num_edges == expected.num_edges
    assert derived.max_degree == expected.max_degree
    assert derived.nodes() == expected.nodes()
    assert derived.neighbor_ids == expected.neighbor_ids
    assert graph_oracles.edges(derived) == graph_oracles.edges(expected)
    np.testing.assert_array_equal(derived.unique_ids, expected.unique_ids)
    np.testing.assert_array_equal(derived.indptr, expected.indptr)
    np.testing.assert_array_equal(derived.indices, expected.indices)


class TestFastNetworkFiltering:
    """CSR masking agrees with rebuilding the graph from a filtered dict."""

    @SLOW
    @given(
        random_edge_lists(),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_filtered_by_labels_matches_network_path(self, data, num_labels, salt):
        n, edges = data
        network = build_network(n, edges)
        fast = fast_view(network)
        label_of = {
            node: (network.unique_id(node) * 2654435761 + salt) % num_labels
            for node in network.nodes()
        }
        expected = graph_oracles.filtered_by_edge(
            network, lambda u, v: label_of[u] == label_of[v]
        )
        labels = np.fromiter(
            (label_of[node] for node in fast.order), dtype=np.int64, count=n
        )
        _assert_same_filtered(fast.filtered_by_labels(labels), expected)

    @SLOW
    @given(random_edge_lists())
    def test_dropped_nodes_match_network_path(self, data):
        # Kept nodes share one label, every dropped node has its own: an
        # edge survives only when both endpoints are kept.
        n, edges = data
        network = build_network(n, edges)
        fast = fast_view(network)
        kept = {node for node in network.nodes() if node % 3 != 0}
        expected = graph_oracles.filtered_by_edge(network, lambda u, v: u in kept and v in kept)
        labels = np.fromiter(
            (0 if node in kept else 1 + i for i, node in enumerate(fast.order)),
            dtype=np.int64,
            count=n,
        )
        _assert_same_filtered(fast.filtered_by_labels(labels), expected)

    @SLOW
    @given(random_edge_lists())
    def test_distinct_labels_isolate_every_node(self, data):
        n, edges = data
        network = build_network(n, edges)
        fast = fast_view(network)
        expected = graph_oracles.filtered_by_edge(network, lambda u, v: False)
        derived = fast.filtered_by_labels(np.arange(n))
        _assert_same_filtered(derived, expected)
        assert derived.num_edges == 0
        assert derived.max_degree == 0

    def test_single_node_network(self):
        network = FastNetwork.from_adjacency({"only": []})
        derived = network.filtered_by_labels(np.zeros(1, dtype=np.int64))
        _assert_same_filtered(derived, graph_oracles.filtered_by_edge(network, lambda u, v: True))
        assert derived.num_nodes == 1
        assert derived.neighbor_ids == ((),)

    def test_empty_network(self):
        fast = FastNetwork.from_adjacency({})
        derived = fast.filtered_by_labels(np.zeros(0, dtype=np.int64))
        assert derived.num_nodes == 0
        assert derived.num_edges == 0


# --------------------------------------------------------------------------- #
# Fast-engine equivalence on random graphs
# --------------------------------------------------------------------------- #


def _metrics_fingerprint(metrics):
    return (
        metrics.summary(),
        [
            (p.name, p.rounds, p.messages, p.total_words, p.max_message_words)
            for p in metrics.phases
        ],
    )


def _array_runs(network, pipeline):
    """``(config, result)`` of ``pipeline`` on the vectorized engine, kernels on and off."""
    for config in ARRAY_CONFIGS:
        with engine_config(config):
            yield config, VectorizedScheduler(network).run(pipeline)


class TestFastEngineProperties:
    """The vectorized engine, kernels on or off, is indistinguishable from
    the reference scheduler on arbitrary random graphs -- states, per-phase
    metrics, everything."""

    @SLOW
    @given(random_edge_lists(max_nodes=10))
    def test_delta_plus_one_pipeline_is_engine_independent(self, data):
        n, edges = data
        network = build_network(n, edges)
        pipeline, _ = delta_plus_one_pipeline(
            n=network.num_nodes, degree_bound=max(1, network.max_degree), output_key="c"
        )
        reference = Scheduler(network).run(pipeline)
        for config, candidate in _array_runs(network, pipeline):
            assert candidate.states == reference.states, config
            assert _metrics_fingerprint(candidate.metrics) == _metrics_fingerprint(
                reference.metrics
            )

    @SLOW
    @given(random_edge_lists(max_nodes=10), st.integers(min_value=1, max_value=4))
    def test_defective_pipeline_is_engine_independent(self, data, defect):
        n, edges = data
        network = build_network(n, edges)
        pipeline, _ = defective_coloring_pipeline(
            n=network.num_nodes,
            degree_bound=max(1, network.max_degree),
            target_defect=defect,
            output_key="d",
        )
        reference = Scheduler(network).run(pipeline)
        for config, candidate in _array_runs(network, pipeline):
            assert candidate.states == reference.states, config
            assert _metrics_fingerprint(candidate.metrics) == _metrics_fingerprint(
                reference.metrics
            )

    @SLOW
    @given(random_edge_lists(max_nodes=8))
    def test_edge_coloring_is_engine_independent(self, data):
        n, edges = data
        network = build_network(n, edges)
        if network.num_edges == 0:
            return
        reference = color_edges(
            network, quality="superlinear", route="direct", engine="reference"
        )
        for config in ARRAY_CONFIGS:
            with engine_config(config) as engine:
                candidate = color_edges(
                    network, quality="superlinear", route="direct", engine=engine
                )
            assert candidate.edge_colors == reference.edge_colors
            assert _metrics_fingerprint(candidate.metrics) == _metrics_fingerprint(
                reference.metrics
            )


# --------------------------------------------------------------------------- #
# ExperimentRunner cache invariants
# --------------------------------------------------------------------------- #


@st.composite
def runner_scenarios(draw) -> Scenario:
    """A random (but valid) legal-coloring scenario on a tiny regular graph."""
    degree = draw(st.integers(min_value=2, max_value=4))
    n = draw(st.integers(min_value=degree + 2, max_value=14))
    if (n * degree) % 2 != 0:
        n += 1
    seed = draw(st.integers(min_value=0, max_value=5))
    quality = draw(st.sampled_from(["superlinear", "linear"]))
    engine = draw(st.sampled_from(["reference", "vectorized"]))
    return Scenario.make(
        name=f"prop-{degree}-{n}-{seed}-{quality}-{engine}",
        graph=GraphSpec("random_regular", n=n, degree=degree, seed=seed),
        algorithm="legal_coloring",
        params={"c": degree, "quality": quality},
        engine=engine,
    )


class TestExperimentRunnerProperties:
    @SLOW
    @given(runner_scenarios())
    def test_cache_hit_equals_fresh_run(self, scenario):
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            runner = ExperimentRunner(cache_dir=tmp, max_workers=0)
            (fresh,) = runner.run([scenario])
            (cached,) = runner.run([scenario])
            assert not fresh.cached
            assert cached.cached
            # The cached payload is the fresh payload, verbatim.
            assert cached.payload == fresh.payload
            assert cached.coloring_digest == fresh.coloring_digest
            assert fresh.verified

    @SLOW
    @given(runner_scenarios())
    def test_cache_token_is_stable_and_name_independent(self, scenario):
        renamed = Scenario.make(
            name="completely-different-name",
            graph=scenario.graph,
            algorithm=scenario.algorithm,
            params=scenario.params_dict,
            engine=scenario.engine,
        )
        assert renamed.cache_token() == scenario.cache_token()
        assert scenario.with_engine("reference").cache_token() != (
            scenario.with_engine("vectorized").cache_token()
        )

    @SLOW
    @given(runner_scenarios())
    def test_engines_agree_through_the_runner(self, scenario):
        runner = ExperimentRunner(cache_dir=None, max_workers=0)
        (reference,) = runner.run([scenario.with_engine("reference")])
        (vectorized,) = runner.run([scenario.with_engine("vectorized")])
        assert vectorized.coloring_digest == reference.coloring_digest
        assert vectorized.rounds == reference.rounds
        assert vectorized.messages == reference.messages
