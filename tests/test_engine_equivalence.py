"""Vectorized engine == reference scheduler, bit for bit, kernels on or off.

The vectorized engine (:class:`repro.local_model.VectorizedScheduler`) is
only trustworthy because these tests pin it to the reference scheduler: for
every core algorithm, over a grid of graphs and seeds, it must produce
*identical* final colorings and *identical* metrics (rounds, messages, total
words, maximum message size -- per phase, not just in aggregate).  Any
divergence, however small, is a bug in the engine.

The vectorized engine is exercised in *both* of its configurations (the
``array_engine`` fixture): with whatever kernel backend the machine resolves
(the C extension), and with kernels switched off so every phase's
``vector_run`` runs its numpy steps -- the results must be identical either
way.  The phases' kernel steps are also driven by the pure-Python ``_loops``
backend on any machine, with and without kernels reporting a
scratch-allocation failure (``TestLoopsBackend*``).
"""

from __future__ import annotations

import numpy as np
import pytest

import graph_oracles
from engine_configs import ARRAY_CONFIGS, ENGINE_CONFIGS, engine_config

from repro import graphs
from repro.baselines import luby_edge_coloring, panconesi_rizzi_edge_coloring
from repro.core import (
    color_edges,
    color_vertices,
    randomized_color_vertices,
    run_defective_color,
    tradeoff_color_vertices,
)
from repro.core.defective_coloring import defective_color_pipeline
from repro.exceptions import InvalidParameterError, SimulationError
from repro.local_model import (
    FastNetwork,
    PhasePipeline,
    Scheduler,
    StateTable,
    VectorizedScheduler,
    fast_view,
    kernels,
    make_scheduler,
    use_engine,
)
from repro.local_model.algorithm import BroadcastPhase, LocalComputationPhase, SILENT
from repro.local_model.kernels import _loops
from repro.primitives.color_reduction import delta_plus_one_pipeline
from repro.primitives.kuhn_defective import defective_coloring_pipeline

ENGINE_CLASSES = {
    "reference": Scheduler,
    "vectorized": VectorizedScheduler,
}


def metrics_fingerprint(metrics):
    """Aggregate plus full per-phase breakdown -- the strongest comparison."""
    return (
        metrics.summary(),
        [
            (p.name, p.rounds, p.messages, p.total_words, p.max_message_words)
            for p in metrics.phases
        ],
    )


def assert_python_ints(value, where):
    """Every integer reachable from ``value`` is a Python ``int``.

    ``np.int64 == int`` holds, so ``==``-based comparisons cannot see a numpy
    scalar leaking out of the CSR arrays; this check can.
    """
    if isinstance(value, dict):
        for item in value.values():
            assert_python_ints(item, where)
    elif isinstance(value, (tuple, list, set, frozenset)):
        for item in value:
            assert_python_ints(item, where)
    elif isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        assert type(value) is int, f"{where}: {type(value).__name__} {value!r}"


class RecordView(LocalComputationPhase):
    """Copies what each node sees into its state, plus an int beyond int64."""

    name = "record-view"

    def compute(self, view, state):
        state["uid"] = view.unique_id
        state["neighbors"] = view.neighbors
        state["big"] = 2**70 + view.unique_id


GRAPHS = {
    "triangle": lambda: graphs.cycle_graph(3),
    "path10": lambda: graphs.path_graph(10),
    "cycle9": lambda: graphs.cycle_graph(9),
    "star6": lambda: graphs.star_graph(6),
    "grid5x4": lambda: graphs.grid_graph(5, 4),
    "clique_pendants8": lambda: graphs.clique_with_pendants(8),
    "regular24x4": lambda: graphs.random_regular(24, 4, seed=7),
    "regular30x6": lambda: graphs.random_regular(30, 6, seed=11),
    "regular26x8-s3": lambda: graphs.random_regular(26, 8, seed=3),
}


@pytest.fixture(params=sorted(GRAPHS), name="grid_network")
def _grid_network(request):
    return GRAPHS[request.param]()


class TestSchedulerLevelEquivalence:
    """Raw pipelines compared straight at the scheduler API.

    These comparisons include the *full* final state dictionaries --
    internal scratch keys and all -- which is the strictest possible check
    of the vectorized kernels.
    """

    def _compare(self, network: FastNetwork, pipeline, initial_states=None):
        reference = Scheduler(network).run(pipeline, initial_states=initial_states)
        fast = fast_view(network)
        for node in fast.order:
            assert_python_ints(fast.unique_id(node), "FastNetwork.unique_id")
        for config in ARRAY_CONFIGS:
            with engine_config(config):
                candidate = VectorizedScheduler(network).run(
                    pipeline, initial_states=initial_states
                )
            assert candidate.states == reference.states
            assert_python_ints(candidate.states, f"{config}.run")
            assert metrics_fingerprint(candidate.metrics) == metrics_fingerprint(
                reference.metrics
            )

    def test_delta_plus_one_pipeline(self, grid_network):
        pipeline, _ = delta_plus_one_pipeline(
            n=grid_network.num_nodes,
            degree_bound=max(1, grid_network.max_degree),
            output_key="c",
        )
        self._compare(grid_network, pipeline)

    def test_delta_plus_one_iterative_reduction(self, grid_network):
        pipeline, _ = delta_plus_one_pipeline(
            n=grid_network.num_nodes,
            degree_bound=max(1, grid_network.max_degree),
            output_key="c",
            use_kuhn_wattenhofer=False,
        )
        self._compare(grid_network, pipeline)

    def test_defective_pipeline(self, grid_network):
        pipeline, _ = defective_coloring_pipeline(
            n=grid_network.num_nodes,
            degree_bound=max(1, grid_network.max_degree),
            target_defect=2,
            output_key="d",
        )
        self._compare(grid_network, pipeline)

    def test_defective_color_pipeline_with_psi_selection(self, grid_network):
        pipeline, _ = defective_color_pipeline(
            n=grid_network.num_nodes,
            b=1,
            p=2,
            Lambda=max(2, grid_network.max_degree),
            c=max(1, grid_network.max_degree),
        )
        self._compare(grid_network, pipeline)

    @pytest.mark.parametrize("mode", ["vertex", "edge"])
    def test_psi_scratch_is_dropped_on_every_engine(self, grid_network, mode):
        # Psi-selection keeps per-node count lists and waiting sets only
        # while it runs: no engine's final states may still hold them.
        network = graph_oracles.line_graph_network(grid_network) if mode == "edge" else grid_network
        if network.num_nodes == 0:
            return
        pipeline, _ = defective_color_pipeline(
            n=network.num_nodes,
            b=1,
            p=2,
            Lambda=max(2, grid_network.max_degree),
            c=2 if mode == "edge" else max(1, grid_network.max_degree),
            mode=mode,
        )
        for config in ENGINE_CONFIGS:
            with engine_config(config) as engine:
                states = make_scheduler(network, engine=engine).run(pipeline).states
            leftovers = {
                key
                for state in states.values()
                for key in ("_psi_counts", "_psi_waiting")
                if key in state
            }
            assert not leftovers, f"{config} kept {sorted(leftovers)}"
            assert all("psi_color" in state for state in states.values())

    def test_defective_color_pipeline_edge_mode(self, grid_network):
        # The Corollary 5.4 route, full final states included: the line-graph
        # incidence kernel must reproduce the per-node callbacks bit for bit,
        # with and without a class restriction.
        line = graph_oracles.line_graph_network(grid_network)
        if line.num_nodes == 0:
            return
        pipeline, _ = defective_color_pipeline(
            n=line.num_nodes,
            b=1,
            p=2,
            Lambda=max(2, grid_network.max_degree),
            c=2,
            mode="edge",
            class_key="cls",
        )
        classes = {
            edge: {"cls": line.unique_id(edge) % 3} for edge in line.nodes()
        }
        self._compare(line, pipeline, initial_states=classes)

    def test_int_outside_int64_on_every_engine(self, grid_network):
        # A seeded value past int64 must stay a Python int in run() and
        # run_table(), carried through a pure vector pipeline.
        pipeline, _ = delta_plus_one_pipeline(
            n=grid_network.num_nodes,
            degree_bound=max(1, grid_network.max_degree),
            output_key="c",
        )
        fast = fast_view(grid_network)
        order = fast.order
        seeds = {node: {"big": 2**70 + fast.unique_id(node)} for node in order}
        self._compare(grid_network, pipeline, initial_states=seeds)
        reference = Scheduler(grid_network).run(pipeline, initial_states=seeds).states
        for config in ENGINE_CONFIGS:
            with engine_config(config) as engine:
                scheduler = make_scheduler(grid_network, engine=engine)
                table = StateTable.from_mapping(seeds, order)
                table, _ = scheduler.run_table(pipeline, table)
            assert table.to_mapping(order) == reference, config

    def test_array_built_views_hand_out_python_ints(self):
        # LocalViews, unique ids and neighbor ids of CSR-built and CSR-masked
        # views all come from int64 arrays; none may leak a numpy scalar.
        # LocalViews exist on the reference engine only.
        base = graphs.random_regular(30, 6, seed=11)
        derived = base.filtered_by_labels(np.arange(base.num_nodes) % 2)
        pipeline, _ = delta_plus_one_pipeline(
            n=base.num_nodes, degree_bound=base.max_degree, output_key="c"
        )
        for network in (base, derived):
            self._compare(network, pipeline)
            recorded = Scheduler(network).run(RecordView()).states
            assert_python_ints(recorded, "reference LocalView")

    def test_partial_mixed_seeds(self, small_regular):
        # Seeds cover three nodes only, one seed names no node of the network
        # (ignored, like the reference), and values mix bool, None, tuple,
        # list and an int past int64: the array engines carry them through
        # their state table.
        nodes = small_regular.nodes()
        seeds = {
            nodes[0]: {"flag": True, "note": None, "big": 2**70},
            nodes[1]: {"flag": False, "pair": (1, 2), "items": [3, 4]},
            nodes[2]: {"pair": (5,), "c0": 7},
            "not-a-node": {"flag": True, "c0": 1},
        }
        pipeline, _ = delta_plus_one_pipeline(
            n=small_regular.num_nodes,
            degree_bound=small_regular.max_degree,
            output_key="c",
        )
        self._compare(small_regular, pipeline, initial_states=seeds)

    def test_empty_network(self):
        pipeline, _ = delta_plus_one_pipeline(n=1, degree_bound=1, output_key="c")
        self._compare(FastNetwork.from_adjacency({}), pipeline)

    def test_single_node_network(self):
        pipeline, _ = delta_plus_one_pipeline(n=1, degree_bound=1, output_key="c")
        self._compare(FastNetwork.from_adjacency({"only": []}), pipeline)


class TestLegalColoringEquivalence:
    @pytest.mark.parametrize("quality", ["superlinear", "linear"])
    def test_identical_colorings_and_metrics(self, grid_network, quality, array_engine):
        c = max(1, grid_network.max_degree)
        reference = color_vertices(
            grid_network, c=c, quality=quality, engine="reference"
        )
        candidate = color_vertices(grid_network, c=c, quality=quality, engine=array_engine)
        assert candidate.colors == reference.colors
        assert candidate.palette == reference.palette
        assert [level.rounds for level in candidate.levels] == [
            level.rounds for level in reference.levels
        ]
        assert metrics_fingerprint(candidate.metrics) == metrics_fingerprint(
            reference.metrics
        )


class TestEdgeColoringEquivalence:
    @pytest.mark.parametrize("quality", ["superlinear", "linear"])
    @pytest.mark.parametrize("route", ["direct", "simulation"])
    def test_identical_edge_colorings(self, quality, route, array_engine):
        for seed in (1, 5):
            network = graphs.random_regular(20, 4, seed=seed)
            reference = color_edges(
                network, quality=quality, route=route, engine="reference"
            )
            candidate = color_edges(network, quality=quality, route=route, engine=array_engine)
            assert candidate.edge_colors == reference.edge_colors
            assert candidate.palette == reference.palette
            assert metrics_fingerprint(candidate.metrics) == metrics_fingerprint(
                reference.metrics
            )

    @pytest.mark.parametrize("route", ["direct", "simulation"])
    def test_identical_edge_colorings_with_recursion_levels(self, route, array_engine):
        # Delta(L) = 30 exceeds the superlinear threshold, so the direct
        # route actually runs Corollary 5.4 levels (the CSR edge kernel).
        network = graphs.random_regular(40, 16, seed=3)
        reference = color_edges(
            network, quality="superlinear", route=route, engine="reference"
        )
        candidate = color_edges(
            network, quality="superlinear", route=route, engine=array_engine
        )
        assert candidate.edge_colors == reference.edge_colors
        assert candidate.palette == reference.palette
        assert metrics_fingerprint(candidate.metrics) == metrics_fingerprint(
            reference.metrics
        )


class TestDefectiveColoringEquivalence:
    @pytest.mark.parametrize("p", [2, 3])
    def test_identical_psi_colorings(self, p, array_engine):
        for seed in (2, 9):
            line = graph_oracles.line_graph_network(graphs.random_regular(18, 4, seed=seed))
            ref_colors, ref_info, ref_metrics = run_defective_color(
                line, b=1, p=p, c=2, engine="reference"
            )
            colors, info, metrics = run_defective_color(
                line, b=1, p=p, c=2, engine=array_engine
            )
            assert colors == ref_colors
            assert info == ref_info
            assert metrics_fingerprint(metrics) == metrics_fingerprint(ref_metrics)

    def test_edge_mode(self, array_engine):
        line = graph_oracles.line_graph_network(graphs.random_regular(16, 6, seed=4))
        ref_colors, _, ref_metrics = run_defective_color(
            line, b=2, p=3, c=2, mode="edge", engine="reference"
        )
        colors, _, metrics = run_defective_color(
            line, b=2, p=3, c=2, mode="edge", engine=array_engine
        )
        assert colors == ref_colors
        assert metrics_fingerprint(metrics) == metrics_fingerprint(ref_metrics)


class TestTradeoffEquivalence:
    @pytest.mark.parametrize(
        "g_label,g", [("sqrt", lambda d: d**0.5), ("linear", float)]
    )
    def test_identical_tradeoff_colorings(self, g_label, g, array_engine):
        line = graph_oracles.line_graph_network(graphs.random_regular(20, 6, seed=13))
        reference = tradeoff_color_vertices(line, c=2, g=g, engine="reference")
        candidate = tradeoff_color_vertices(line, c=2, g=g, engine=array_engine)
        assert candidate.colors == reference.colors
        assert candidate.palette == reference.palette
        assert metrics_fingerprint(candidate.metrics) == metrics_fingerprint(
            reference.metrics
        )


class TestRandomizedEquivalence:
    def test_identical_randomized_colorings(self, array_engine):
        # Per-node randomness is keyed by (seed, unique id), so it must be
        # engine-independent.
        network = graphs.random_regular(32, 8, seed=21)
        for seed in (0, 7):
            reference = randomized_color_vertices(
                network, c=8, seed=seed, engine="reference"
            )
            candidate = randomized_color_vertices(
                network, c=8, seed=seed, engine=array_engine
            )
            assert candidate.colors == reference.colors
            assert candidate.class_assignment == reference.class_assignment
            assert metrics_fingerprint(candidate.metrics) == metrics_fingerprint(
                reference.metrics
            )


class TestBaselineEquivalence:
    """The baselines' own phases (Panconesi-Rizzi's reduction, Luby) match too."""

    def test_panconesi_rizzi(self, array_engine):
        network = graphs.random_regular(18, 4, seed=5)
        reference = panconesi_rizzi_edge_coloring(network, engine="reference")
        candidate = panconesi_rizzi_edge_coloring(network, engine=array_engine)
        assert candidate.edge_colors == reference.edge_colors
        assert metrics_fingerprint(candidate.metrics) == metrics_fingerprint(
            reference.metrics
        )

    def test_luby_randomized(self, array_engine):
        network = graphs.random_regular(18, 4, seed=6)
        reference = luby_edge_coloring(network, seed=3, engine="reference")
        candidate = luby_edge_coloring(network, seed=3, engine=array_engine)
        assert candidate.edge_colors == reference.edge_colors
        assert metrics_fingerprint(candidate.metrics) == metrics_fingerprint(
            reference.metrics
        )


class TestVectorRunOnly:
    """The vectorized engine runs ``vector_run`` phases only.

    Every phase the package ships defines ``vector_run``, so the
    Legal-Color pipeline family runs on the columnar state store without
    per-node Python.  A phase without ``vector_run`` (a user-defined phase)
    is rejected before any phase runs; it runs on ``engine="reference"``.
    """

    def test_legal_color_pipelines_run_vectorized(self, grid_network):
        from repro.local_model import StateTable, fast_view

        scheduler = VectorizedScheduler(grid_network)
        n = grid_network.num_nodes
        degree = max(2, grid_network.max_degree)
        # The three pipeline families Procedure Legal-Color is built from:
        # the auxiliary/defective pipelines of each level and the bottom
        # (Delta + 1)-coloring, including the zero-round glue phases.
        pipelines = [
            defective_color_pipeline(n=n, b=1, p=2, Lambda=degree, c=degree)[0],
            defective_coloring_pipeline(
                n=n, degree_bound=degree, target_defect=2, output_key="d"
            )[0],
            delta_plus_one_pipeline(n=n, degree_bound=degree, output_key="c")[0],
        ]
        table = StateTable(n)
        for pipeline in pipelines:
            table, metrics = scheduler.run_table(pipeline, table)
            assert metrics.fallback_phase_names == []
        assert table.to_mapping(fast_view(grid_network).order)  # states produced

    def test_end_to_end_legal_coloring_reports_zero_fallbacks(self, small_regular):
        result = color_vertices(small_regular, c=4, engine="vectorized")
        assert result.metrics.fallback_phase_names == []

    def test_every_library_phase_defines_vector_run(self):
        # Structural: nothing the package ships can reach the "no vector_run"
        # error, so a library pipeline never needs the reference engine.
        import importlib
        import inspect
        import pkgutil

        import repro
        from repro.local_model.algorithm import SynchronousPhase

        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            importlib.import_module(info.name)

        def concrete_subclasses(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from concrete_subclasses(sub)

        library = {
            cls
            for cls in concrete_subclasses(SynchronousPhase)
            if cls.__module__.startswith("repro.") and not inspect.isabstract(cls)
        }
        assert {cls.__name__ for cls in library} >= {
            "CopyKeyPhase",
            "DefectiveStepPhase",
            "IterativeColorReductionPhase",
            "KuhnDefectiveEdgeColoringPhase",
            "KuhnWattenhoferReductionPhase",
            "LinialColoringPhase",
            "LubyRandomColoringPhase",
            "PsiSelectionPhase",
        }
        missing = sorted(
            f"{cls.__module__}.{cls.__qualname__}"
            for cls in library
            if not callable(getattr(cls, "vector_run", None))
        )
        assert missing == []

    def test_phase_without_vector_run_raises_on_vectorized(self, small_regular):
        with pytest.raises(
            InvalidParameterError,
            match=r"phase 'max-neighbor-id' has no vector_run; "
            r"run it with engine='reference'",
        ):
            VectorizedScheduler(small_regular).run(MaxNeighborId())
        # The same phase runs on the reference engine, unchanged.
        result = Scheduler(small_regular).run(MaxNeighborId())
        network = graph_oracles.adjacency(small_regular)
        for node, neighbors in network.items():
            expected = max(small_regular.unique_id(other) for other in (node, *neighbors))
            assert result.states[node]["seen"] == expected
        assert result.metrics.rounds == 2

    def test_mixed_pipeline_raises_before_any_phase_runs(self, small_regular, array_engine):
        # A user-defined phase between two kernel phases: the vectorized
        # engine names it and runs nothing; the input table is untouched.
        pipeline, _ = delta_plus_one_pipeline(
            n=small_regular.num_nodes,
            degree_bound=small_regular.max_degree,
            output_key="c",
        )
        first, *rest = pipeline.phases
        mixed = PhasePipeline([first, MaxNeighborId(), *rest, RecordView()])
        order = fast_view(small_regular).order
        seeds = {node: {"seed": i} for i, node in enumerate(order)}
        table = StateTable.from_mapping(seeds, order)
        scheduler = make_scheduler(small_regular, engine=array_engine)
        with pytest.raises(InvalidParameterError, match="'max-neighbor-id'"):
            scheduler.run_table(mixed, table)
        assert table.keys() == ("seed",)
        assert table.to_mapping(order) == seeds
        # The same pipeline runs on the reference engine.
        reference = make_scheduler(small_regular, engine="reference").run(mixed)
        assert all("seen" in state and "c" in state for state in reference.states.values())

    def test_edge_mode_runs_vectorized(self):
        # The Corollary 5.4 edge phase has a CSR kernel (over the line-graph
        # incidence encoding): edge-mode Defective-Color must execute with
        # zero reference fallbacks and still match the reference bit for bit.
        line = graph_oracles.line_graph_network(graphs.random_regular(16, 6, seed=4))
        reference = run_defective_color(line, b=2, p=3, c=2, mode="edge", engine="reference")
        colors, _, metrics = run_defective_color(
            line, b=2, p=3, c=2, mode="edge", engine="vectorized"
        )
        assert colors == reference[0]
        assert metrics.fallback_phase_names == []

    def test_edge_mode_legal_coloring_reports_zero_fallbacks(self):
        # End-to-end color_edges on the direct (Theorem 5.5) route, sized so
        # the recursion actually executes Corollary 5.4 levels
        # (Delta(L) = 30 > the superlinear preset's threshold of 18).
        network = graphs.random_regular(40, 16, seed=3)
        result = color_edges(
            network, quality="superlinear", route="direct", engine="vectorized"
        )
        assert len(result.levels) >= 1
        assert result.metrics.fallback_phase_names == []

    def test_simulation_route_reports_zero_fallbacks(self):
        network = graphs.random_regular(40, 16, seed=3)
        result = color_edges(
            network, quality="superlinear", route="simulation", engine="vectorized"
        )
        assert result.metrics.fallback_phase_names == []


class MaxNeighborId(BroadcastPhase):
    """A user-defined phase without ``vector_run``: the largest id seen."""

    name = "max-neighbor-id"

    def initialize(self, view, state):
        state["seen"] = view.unique_id

    def broadcast(self, view, state, round_index):
        if round_index == 1:
            return view.unique_id
        return SILENT

    def receive(self, view, state, inbox, round_index):
        if inbox:
            state["seen"] = max(state["seen"], *inbox.values())
        return round_index >= 2

    def max_rounds(self, n, max_degree):
        return 4


def _retired_name_entry_points():
    """``name -> call(network, engine)`` for every public way to pick an engine."""
    from repro import portfolio
    from repro.dynamic import DynamicColoring
    from repro.experiments import GraphSpec, Scenario
    from repro.local_model import set_default_engine

    def scenario(network, engine):
        Scenario.make(
            name="retired",
            graph=GraphSpec("random_regular", n=8, degree=2, seed=1),
            algorithm="legal_coloring",
            engine=engine,
        )

    def scoped(network, engine):
        with use_engine(engine):
            pass

    return {
        "make_scheduler": lambda network, engine: make_scheduler(network, engine=engine),
        "color_vertices": lambda network, engine: color_vertices(network, c=2, engine=engine),
        "color_edges": lambda network, engine: color_edges(network, engine=engine),
        "color_graph": lambda network, engine: portfolio.color_graph(network, engine=engine),
        "dynamic_session": lambda network, engine: DynamicColoring(
            fast_view(network), c=2, engine=engine
        ),
        "scenario": scenario,
        "use_engine": scoped,
        "set_default_engine": lambda network, engine: set_default_engine(engine),
    }


RETIRED_NAME_ENTRY_POINTS = _retired_name_entry_points()


class TestEngineSelection:
    def test_two_engines(self):
        from repro.local_model import available_engines

        assert available_engines() == ("reference", "vectorized")

    @pytest.mark.parametrize("entry_point", sorted(RETIRED_NAME_ENTRY_POINTS))
    @pytest.mark.parametrize("retired", ["batched", "compiled"])
    def test_retired_engine_names_rejected(self, triangle, entry_point, retired):
        with pytest.raises(InvalidParameterError, match=retired):
            RETIRED_NAME_ENTRY_POINTS[entry_point](triangle, retired)

    def test_retired_modules_are_private_aliases(self):
        # Kept only so existing imports of the old module paths keep working;
        # neither name is part of the package API.
        import repro
        import repro.local_model as local_model
        from repro.local_model.batched import BatchedScheduler
        from repro.local_model.compiled import CompiledScheduler

        assert BatchedScheduler is VectorizedScheduler
        assert CompiledScheduler is VectorizedScheduler
        for module in (repro, local_model):
            assert "BatchedScheduler" not in module.__all__
            assert "CompiledScheduler" not in module.__all__

    def test_make_scheduler_types(self, triangle):
        for engine, engine_cls in ENGINE_CLASSES.items():
            assert isinstance(make_scheduler(triangle, engine=engine), engine_cls)

    @pytest.mark.parametrize("config", ARRAY_CONFIGS)
    def test_default_engine_is_vectorized_with_kernels_on_or_off(self, triangle, config):
        # Kernels are a switch inside the engine, not an engine of their own:
        # the default is "vectorized" either way, and its scheduler reports
        # the backend the kernels run on.
        from repro.local_model import default_engine

        with engine_config(config):
            assert default_engine() == "vectorized"
            scheduler = make_scheduler(triangle)
            assert type(scheduler) is VectorizedScheduler
            assert scheduler.kernel_backend_name == kernels.backend_name()
        if config == "kernels-off":
            assert scheduler.kernel_backend_name is None

    def test_set_default_engine_pins_the_default(self, triangle, monkeypatch):
        import repro.local_model.engine as engine_module
        from repro.local_model import default_engine, set_default_engine

        # Registered first so teardown unpins the default.
        monkeypatch.setattr(engine_module, "_pinned_default", None)
        set_default_engine("reference")
        assert default_engine() == "reference"
        assert type(make_scheduler(triangle)) is Scheduler

    def test_use_engine_context_switches_default(self, triangle):
        with use_engine("reference"):
            assert type(make_scheduler(triangle)) is Scheduler
        assert type(make_scheduler(triangle)) is VectorizedScheduler
        with use_engine("vectorized"):
            with use_engine("reference"):
                assert type(make_scheduler(triangle)) is Scheduler
            assert type(make_scheduler(triangle)) is VectorizedScheduler

    def test_leaving_use_engine_unpins(self):
        from repro.local_model import default_engine

        with use_engine("reference"):
            assert default_engine() == "reference"
        assert default_engine() == "vectorized"

    def test_unknown_engine_rejected(self, triangle):
        with pytest.raises(InvalidParameterError):
            make_scheduler(triangle, engine="warp-drive")

    def test_default_engine_drives_algorithms(self, small_regular, array_engine):
        baseline = color_vertices(small_regular, c=4, engine="reference")
        with use_engine(array_engine):
            switched = color_vertices(small_regular, c=4)
        assert switched.colors == baseline.colors

    def test_non_neighbor_message_rejected(self, triangle):
        # Message validation is the reference engine's; a phase with a send
        # callback but no vector_run never reaches the vectorized engine.
        from repro.exceptions import SimulationError
        from repro.local_model import SynchronousPhase

        class Misbehaving(SynchronousPhase):
            name = "misbehaving"

            def send(self, view, state, round_index):
                return {"not-a-neighbor": 1}

            def receive(self, view, state, inbox, round_index):
                return True

        with pytest.raises(SimulationError):
            make_scheduler(triangle, engine="reference").run(Misbehaving())

    def test_round_limit_enforced(self, triangle):
        from repro.exceptions import RoundLimitExceeded
        from repro.local_model import SynchronousPhase

        class NeverHalting(SynchronousPhase):
            name = "never-halting"

            def send(self, view, state, round_index):
                return {}

            def receive(self, view, state, inbox, round_index):
                return False

            def max_rounds(self, n, max_degree):
                return 5

        with pytest.raises(RoundLimitExceeded):
            make_scheduler(triangle, engine="reference").run(NeverHalting())

    @pytest.mark.parametrize("config", ENGINE_CONFIGS)
    def test_vector_run_round_budget_matches_reference(self, config):
        # VectorContext.check_round_budget raises the reference scheduler's
        # exception with the reference text, kernels on or off.
        from repro.baselines.luby_random import LubyRandomColoringPhase
        from repro.exceptions import RoundLimitExceeded

        class OneRoundLuby(LubyRandomColoringPhase):
            def max_rounds(self, n, max_degree):
                return 1

        network = graphs.random_regular(200, 8, seed=1)
        message = "phase 'luby[9]' exceeded its round budget of 1"
        with engine_config(config) as engine:
            scheduler = make_scheduler(network, engine=engine)
            with pytest.raises(RoundLimitExceeded) as raised:
                scheduler.run(OneRoundLuby(palette=9, seed=0))
        assert str(raised.value) == message


class TestKernelsResolution:
    """Kernel specifics: backend resolution and kernels-off behaviour."""

    def test_zero_kernel_losses_with_backend(self, small_regular):
        if kernels.get_backend() is None:
            pytest.skip(f"no kernel backend: {kernels.backend_reason()}")
        scheduler = VectorizedScheduler(small_regular)
        assert scheduler.kernel_backend_name == "cext"
        result = color_vertices(small_regular, c=4, engine="vectorized")
        assert result.metrics.fallback_phase_names == []

    def test_kernels_off_match_kernels_on_and_record_no_loss(self, small_regular):
        # Switching kernels off runs the numpy steps of the same vector_run.
        with engine_config("kernels-on"):
            baseline = color_vertices(small_regular, c=4, engine="vectorized")
        with engine_config("kernels-off"):
            assert VectorizedScheduler(small_regular).kernel_backend_name is None
            result = color_vertices(small_regular, c=4, engine="vectorized")
        assert result.colors == baseline.colors
        assert metrics_fingerprint(result.metrics) == metrics_fingerprint(
            baseline.metrics
        )
        assert result.metrics.fallback_phase_names == []

    @pytest.mark.parametrize("requested", ["warp-drive", "numba"])
    def test_unknown_backend_request_resolves_to_none(self, monkeypatch, requested):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", requested)
        kernels.reset()
        try:
            assert kernels.get_backend() is None
            assert repr(requested) in kernels.backend_reason()
        finally:
            kernels.reset()

    def test_thread_count_queries(self):
        # With a backend the count is a positive integer; without, exactly 1.
        count = kernels.get_num_threads()
        assert count >= 1
        if kernels.get_backend() is not None:
            kernels.set_num_threads(1)
            assert kernels.get_num_threads() == 1
            kernels.set_num_threads(count)


class LoopsBackend:
    """A kernel backend built from the pure-Python loops of ``_loops``.

    It runs on any machine, so the phases' kernel steps are held to the reference
    engine even where no compiled provider resolves.  The call numbers in
    ``scratch_fails`` (1-based) must be calls of a kernel with a
    scratch-allocation branch (:data:`SCRATCH_KERNELS`); those calls report
    status 2 and write nothing.  ``kernels`` lists every call's kernel name
    in order.
    """

    name = "loops"

    def __init__(self, scratch_fails=()):
        self.scratch_fails = set(scratch_fails)
        self.kernels = []

    def max_threads(self):
        return 1

    def set_threads(self, count):
        pass

    def scratch_calls(self):
        """The numbers of the calls made to a kernel in :data:`SCRATCH_KERNELS`."""
        return [i for i, k in enumerate(self.kernels, 1) if k in SCRATCH_KERNELS]

    def __getattr__(self, kernel):
        loop = getattr(_loops, kernel)

        def call(*args):
            self.kernels.append(kernel)
            if len(self.kernels) not in self.scratch_fails:
                return loop(*args)
            assert kernel in SCRATCH_KERNELS, kernel
            if kernel == "kw_reduce":  # reports through its status array
                args[-1][0] = 2
                return None
            return 2

        return call


#: The kernels whose status 2 sends the phase to its numpy step.
SCRATCH_KERNELS = ("kw_reduce", "psi_select")


def run_on(backend, run):
    """``run()`` with ``backend`` installed as the kernel provider."""
    restore = kernels.force_backend(backend, reason="test backend")
    try:
        return run()
    finally:
        restore()


def _kernel_pipelines():
    """Pipelines covering every registered kernel, with their networks and seeds."""
    from repro.baselines.luby_random import LubyRandomColoringPhase

    cycles = graphs.random_regular(300, 2, seed=7)
    n = cycles.num_nodes
    line = graph_oracles.line_graph_network(graphs.random_regular(200, 3, seed=4))
    edge, _ = defective_color_pipeline(
        n=line.num_nodes, b=1, p=2, Lambda=4, c=2, mode="edge", class_key="cls"
    )
    line_prefix, _ = delta_plus_one_pipeline(
        n=line.num_nodes, degree_bound=line.max_degree, output_key="c"
    )
    return {
        "linial-kw": (
            cycles,
            delta_plus_one_pipeline(n=n, degree_bound=2, output_key="c")[0],
            None,
        ),
        "linial-iterative": (
            cycles,
            delta_plus_one_pipeline(
                n=n, degree_bound=2, output_key="c", use_kuhn_wattenhofer=False
            )[0],
            None,
        ),
        "defective-step": (
            cycles,
            defective_coloring_pipeline(
                n=n, degree_bound=2, target_defect=3, output_key="d"
            )[0],
            None,
        ),
        "edge-rank": (
            line,
            PhasePipeline([*line_prefix.phases, *edge.phases]),
            {e: {"cls": line.unique_id(e) % 3} for e in line.nodes()},
        ),
        "psi-vertex": (
            line,
            defective_color_pipeline(
                n=line.num_nodes, b=1, p=2, Lambda=line.max_degree, c=2
            )[0],
            None,
        ),
        "luby": (
            cycles,
            PhasePipeline([LubyRandomColoringPhase(palette=3, seed=3)]),
            None,
        ),
    }


KERNEL_PIPELINES = _kernel_pipelines()


class TestLoopsBackend:
    """Every kernel step, driven by the ``_loops`` backend, against reference."""

    @pytest.mark.parametrize("pipeline_name", sorted(KERNEL_PIPELINES))
    def test_pipeline_matches_reference(self, pipeline_name):
        network, pipeline, seeds = KERNEL_PIPELINES[pipeline_name]
        reference = Scheduler(network).run(pipeline, initial_states=seeds)
        backend = LoopsBackend()
        scheduler = run_on(backend, lambda: VectorizedScheduler(network))
        result = run_on(
            backend, lambda: scheduler.run(pipeline, initial_states=seeds)
        )
        assert scheduler.kernel_backend_name == "loops"
        assert backend.kernels
        assert result.states == reference.states
        assert metrics_fingerprint(result.metrics) == metrics_fingerprint(
            reference.metrics
        )
        assert result.metrics.fallback_phase_names == []

    def test_pipelines_cover_every_kernel(self):
        called = set()
        for network, pipeline, seeds in KERNEL_PIPELINES.values():
            backend = LoopsBackend()
            run_on(
                backend,
                lambda: VectorizedScheduler(network).run(pipeline, initial_states=seeds),
            )
            called.update(backend.kernels)
        assert called == set(_loops.KERNEL_NAMES)

    @pytest.mark.parametrize(
        "pipeline_name, kernel",
        [
            ("linial-kw", "kw_reduce"),
            ("edge-rank", "kw_reduce"),
            ("edge-rank", "psi_select"),
            ("psi-vertex", "psi_select"),
        ],
    )
    def test_scratch_failure_reruns_only_that_phase(self, pipeline_name, kernel):
        # Status 2 re-runs the phase's numpy vector_run; the scheduler keeps
        # its backend, so every later phase still runs as a kernel.
        network, pipeline, seeds = KERNEL_PIPELINES[pipeline_name]
        reference = Scheduler(network).run(pipeline, initial_states=seeds)
        healthy = LoopsBackend()
        run_on(
            healthy,
            lambda: VectorizedScheduler(network).run(pipeline, initial_states=seeds),
        )
        assert healthy.kernels.count(kernel) == 1
        failing_call = healthy.kernels.index(kernel) + 1

        backend = LoopsBackend(scratch_fails=[failing_call])
        scheduler = run_on(backend, lambda: VectorizedScheduler(network))
        result = run_on(
            backend, lambda: scheduler.run(pipeline, initial_states=seeds)
        )
        assert result.states == reference.states
        assert metrics_fingerprint(result.metrics) == metrics_fingerprint(
            reference.metrics
        )
        assert result.metrics.fallback_phase_names == []
        assert backend.kernels == healthy.kernels
        assert scheduler.kernel_backend_name == "loops"

    @pytest.mark.parametrize("case", ["palette", "iterative-no-free", "kw-no-free"])
    def test_kernel_path_errors_match_reference(self, case):
        # A kernel phase's algorithm error -- a palette violation, or a kernel's
        # status 1 for "no free color" -- reaches the caller with the
        # reference engine's exact type and text.
        from repro.primitives.color_reduction import (
            IterativeColorReductionPhase,
            KuhnWattenhoferReductionPhase,
        )

        if case == "palette":
            network = graphs.cycle_graph(3)
            phase = KuhnWattenhoferReductionPhase(palette=4, target=3, input_key="c")
            seeds = {node: {"c": 5} for node in network.nodes()}
            error = InvalidParameterError
        else:
            # The center's leaves hold every color below the target, so the
            # center finds no free color in its first reduction round.
            k = 3
            network = graphs.star_graph(2 * k)
            seeds = {
                node: {"c": 1 + i % k}
                for i, node in enumerate(n for n in network.nodes() if n != "center")
            }
            seeds["center"] = {"c": k + 1}
            reduction = (
                IterativeColorReductionPhase
                if case == "iterative-no-free"
                else KuhnWattenhoferReductionPhase
            )
            phase = reduction(palette=2 * k, target=k, input_key="c")
            error = SimulationError
        with pytest.raises(error) as expected:
            Scheduler(network).run(phase, initial_states=seeds)
        backend = LoopsBackend()
        with pytest.raises(error) as actual:
            run_on(
                backend,
                lambda: VectorizedScheduler(network).run(phase, initial_states=seeds),
            )
        assert str(actual.value) == str(expected.value)
        if case != "palette":
            assert backend.kernels  # the error came from the kernel's status


def _whole_runs():
    """``name -> run(engine)`` for every algorithm family with kernel phases."""
    from repro.baselines import greedy_reduction_edge_coloring, luby_vertex_coloring

    regular = graphs.random_regular(40, 6, seed=11)
    line = graph_oracles.line_graph_network(graphs.random_regular(20, 6, seed=13))
    return {
        "legal-superlinear": lambda e: color_vertices(
            regular, c=6, quality="superlinear", engine=e
        ).colors,
        "legal-linear": lambda e: color_vertices(regular, c=6, quality="linear", engine=e).colors,
        "edges-direct": lambda e: color_edges(
            regular, quality="superlinear", route="direct", engine=e
        ).edge_colors,
        "edges-simulation": lambda e: color_edges(
            regular, quality="linear", route="simulation", engine=e
        ).edge_colors,
        "defective-edge": lambda e: run_defective_color(
            line, b=2, p=3, c=2, mode="edge", engine=e
        )[0],
        "tradeoff": lambda e: tradeoff_color_vertices(
            line, c=2, g=lambda d: d**0.5, engine=e
        ).colors,
        "randomized": lambda e: randomized_color_vertices(regular, c=6, seed=4, engine=e).colors,
        "luby-vertex": lambda e: luby_vertex_coloring(regular, seed=2, engine=e).colors,
        "luby-edge": lambda e: luby_edge_coloring(regular, seed=2, engine=e).edge_colors,
        "panconesi-rizzi": lambda e: panconesi_rizzi_edge_coloring(regular, engine=e).edge_colors,
        "greedy-reduction": lambda e: greedy_reduction_edge_coloring(
            regular, engine=e
        ).edge_colors,
    }


WHOLE_RUNS = _whole_runs()

#: The whole runs that make at least one call to a kernel in SCRATCH_KERNELS.
SCRATCH_RUNS = sorted(set(WHOLE_RUNS) - {"luby-vertex", "luby-edge", "greedy-reduction"})


class TestLoopsBackendWholeRuns:
    """Every algorithm family, run on the ``_loops`` backend, returns the reference result."""

    @pytest.mark.parametrize("name", sorted(WHOLE_RUNS))
    def test_result_matches_reference(self, name):
        run = WHOLE_RUNS[name]
        backend = LoopsBackend()
        assert run_on(backend, lambda: run("vectorized")) == run("reference")
        assert backend.kernels
        assert bool(backend.scratch_calls()) == (name in SCRATCH_RUNS)

    @pytest.mark.parametrize("name", SCRATCH_RUNS)
    def test_scratch_failures_match_reference(self, name):
        # Every scratch-kernel call of the run reports status 2.
        run = WHOLE_RUNS[name]
        healthy = LoopsBackend()
        run_on(healthy, lambda: run("vectorized"))
        backend = LoopsBackend(scratch_fails=healthy.scratch_calls())
        assert run_on(backend, lambda: run("vectorized")) == run("reference")
        assert backend.kernels == healthy.kernels

    def test_scratch_failures_record_no_fallback(self, small_regular):
        reference = color_vertices(small_regular, c=4, engine="reference")
        healthy = LoopsBackend()
        run_on(healthy, lambda: color_vertices(small_regular, c=4, engine="vectorized"))
        assert healthy.scratch_calls()
        backend = LoopsBackend(scratch_fails=healthy.scratch_calls())
        result = run_on(
            backend, lambda: color_vertices(small_regular, c=4, engine="vectorized")
        )
        assert result.colors == reference.colors
        assert metrics_fingerprint(result.metrics) == metrics_fingerprint(reference.metrics)
        assert result.metrics.fallback_phase_names == []
        # The fields kept for perfbench are never written.
        assert result.metrics.compiled_fallback_phase_names == []
        assert result.metrics.degraded_engine_names == []


class TestKernelsDispatch:
    """A phase reaches the kernels through ``VectorContext.kernels`` alone."""

    @staticmethod
    def _kernels_called(phase):
        network = graphs.cycle_graph(12)
        seeds = {node: {"a": 1 + i % 12} for i, node in enumerate(network.nodes())}
        reference = Scheduler(network).run(phase, initial_states=seeds)
        backend = LoopsBackend()
        result = run_on(
            backend,
            lambda: VectorizedScheduler(network).run(phase, initial_states=seeds),
        )
        assert result.states == reference.states
        assert result.metrics.fallback_phase_names == []
        return backend.kernels

    def test_plain_subclass_still_calls_its_kernel(self):
        from repro.primitives.color_reduction import KuhnWattenhoferReductionPhase

        class Custom(KuhnWattenhoferReductionPhase):
            pass

        phase = Custom(palette=12, target=3, input_key="a", output_key="b")
        assert self._kernels_called(phase) == ["kw_reduce"]

    def test_overridden_vector_run_calls_no_kernel(self):
        from repro.primitives.color_reduction import KuhnWattenhoferReductionPhase

        class NumpyOnly(KuhnWattenhoferReductionPhase):
            def vector_run(self, ctx):
                ctx.kernels = None
                super().vector_run(ctx)

        phase = NumpyOnly(palette=12, target=3, input_key="a", output_key="b")
        assert self._kernels_called(phase) == []


class TestKernelsThreadCount:
    """Thread counts are validated once, the same way for every provider."""

    @pytest.mark.parametrize("bad", [0, -3, 2.5, "abc", None, True, 2.0])
    def test_set_num_threads_rejects(self, bad):
        before = kernels.get_num_threads()
        with pytest.raises(InvalidParameterError, match=repr(bad).replace(".", r"\.")):
            kernels.set_num_threads(bad)
        assert kernels.get_num_threads() == before

    @pytest.mark.parametrize("bad", ["abc", "0", "-3", "2.5"])
    def test_env_thread_count_rejected(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_KERNEL_THREADS", bad)
        kernels.reset()
        try:
            with pytest.raises(InvalidParameterError, match=repr(bad)):
                kernels.get_backend()
            # Still rejected on the next call: nothing half-resolved is cached.
            with pytest.raises(InvalidParameterError):
                kernels.backend_name()
        finally:
            monkeypatch.delenv("REPRO_KERNEL_THREADS")
            kernels.reset()

    def test_env_thread_count_applied(self, monkeypatch):
        before = kernels.get_num_threads()
        monkeypatch.setenv("REPRO_KERNEL_THREADS", "1")
        kernels.reset()
        try:
            if kernels.get_backend() is None:
                pytest.skip(f"no kernel backend: {kernels.backend_reason()}")
            assert kernels.get_num_threads() == 1
        finally:
            monkeypatch.delenv("REPRO_KERNEL_THREADS")
            kernels.reset()
            kernels.set_num_threads(before)

    @staticmethod
    def _fork_and_color():
        """Fork a child that colors a graph and reports its kernel thread count."""
        import os

        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:  # pragma: no cover - runs in the child
            os.close(read)
            color_vertices(graphs.random_regular(200, 4, seed=1), c=4, engine="vectorized")
            os.write(write, str(kernels.get_num_threads()).encode())
            os._exit(0)
        os.close(write)
        return pid, read

    def test_forked_child_runs_one_thread(self):
        import os
        import signal
        import time

        if kernels.get_backend() is None:
            pytest.skip(f"no kernel backend: {kernels.backend_reason()}")
        before = kernels.get_num_threads()
        try:
            kernels.set_num_threads(2)  # the parent must own a thread team
        except ValueError:
            pytest.skip("the backend cannot run two threads here")
        try:
            color_vertices(graphs.random_regular(200, 4, seed=1), c=4, engine="vectorized")
            pid, read = self._fork_and_color()
        finally:
            kernels.set_num_threads(before)
        deadline = time.monotonic() + 60
        while os.waitpid(pid, os.WNOHANG) == (0, 0):
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child hung in its first parallel region")
            time.sleep(0.05)
        with os.fdopen(read) as pipe:
            assert pipe.read() == "1"


class TestPhaseSecondsAccounting:
    """Satellite: every engine records wall-clock per phase in RunMetrics."""

    @pytest.mark.parametrize("config", ENGINE_CONFIGS)
    def test_phase_seconds_cover_all_phases(self, small_regular, config):
        with engine_config(config) as engine:
            result = color_vertices(small_regular, c=4, engine=engine)
        seconds = result.metrics.phase_seconds
        assert seconds  # populated for every engine
        assert all(value >= 0.0 for value in seconds.values())
        # Every phase that contributed metrics contributed wall time too.
        assert {p.name for p in result.metrics.phases} <= set(seconds)

    def test_merge_accumulates_phase_seconds(self):
        from repro.local_model import RunMetrics

        first = RunMetrics()
        first.add_phase_seconds("linial", 0.25)
        second = RunMetrics()
        second.add_phase_seconds("linial", 0.5)
        second.add_phase_seconds("kw", 1.0)
        first.merge(second)
        assert first.phase_seconds == {"linial": 0.75, "kw": 1.0}
