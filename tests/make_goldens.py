#!/usr/bin/env python3
"""Golden fixture definitions and (re)generation for the regression tests.

``tests/test_golden_colorings.py`` compares every fixture's full output --
coloring, palette, rounds, messages, bandwidth -- against the JSON files
committed under ``tests/data/``.  The goldens freeze the *observed* behavior
of the seeded deterministic algorithms so refactors (new engines, new
orderings) cannot silently change results.

Regenerate after an *intentional* behavior change with::

    PYTHONPATH=src python tests/make_goldens.py

and review the resulting diff like any other code change.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict

DATA_DIR = Path(__file__).resolve().parent / "data"


def _legal(network, c, quality, engine):
    from repro.core import color_vertices

    result = color_vertices(network, c=c, quality=quality, engine=engine)
    return result.colors, {
        "palette": result.palette,
        "levels": result.num_levels,
        **_metrics(result.metrics),
    }


def _edge(network, quality, route, engine):
    from repro.core import color_edges

    result = color_edges(network, quality=quality, route=route, engine=engine)
    return result.edge_colors, {"palette": result.palette, **_metrics(result.metrics)}


def _defective(network, b, p, c, engine):
    from repro.core import run_defective_color

    colors, info, metrics = run_defective_color(network, b=b, p=p, c=c, engine=engine)
    return colors, {
        "palette": info.p,
        "psi_defect_bound": info.psi_defect_bound,
        **_metrics(metrics),
    }


def _tradeoff(network, c, g_name, engine):
    from repro.core import tradeoff_color_vertices
    from repro.experiments import G_FUNCTIONS

    result = tradeoff_color_vertices(network, c=c, g=G_FUNCTIONS[g_name], engine=engine)
    return result.colors, {
        "palette": result.palette,
        "split_palette": result.split_palette,
        **_metrics(result.metrics),
    }


def _randomized(network, c, seed, engine):
    from repro.core import randomized_color_vertices

    result = randomized_color_vertices(network, c=c, seed=seed, engine=engine)
    return result.colors, {
        "palette": result.palette,
        "num_classes": result.num_classes,
        "split_defect": result.split_defect,
        "per_class_palette": result.per_class_palette,
        **_metrics(result.metrics),
    }


def _dynamic_churn(network, c, seed, steps, batch, engine):
    """Freeze a churn session's final coloring, palette bound and metrics."""
    session = churn_session(network, c, seed, steps, batch, engine)
    return session.colors, {
        "palette": session.palette_bound,
        "steps": steps,
        "final_edges": session.network.num_edges,
        **_metrics(session.metrics),
    }


def churn_session(network, c, seed, steps, batch, engine):
    """Drive a seeded churn schedule through a :class:`DynamicColoring`.

    The schedule is a deterministic function of the seed and the evolving
    edge set only (never of the coloring), so every engine sees the identical
    sequence of update batches.
    """
    import numpy as np

    from repro.dynamic import DynamicColoring

    session = DynamicColoring(network, c=c, engine=engine)
    rng = np.random.default_rng(seed)
    n = session.network.num_nodes
    for _ in range(steps):
        add_u = rng.integers(0, n, size=batch)
        add_v = rng.integers(0, n, size=batch)
        loopless = add_u != add_v
        fast = session.network
        forward = fast.rows_np < fast.indices_np
        edge_u = fast.rows_np[forward]
        edge_v = fast.indices_np[forward]
        pick = rng.integers(0, len(edge_u), size=batch // 2)
        session.apply_updates(
            added=(add_u[loopless], add_v[loopless]),
            removed=(edge_u[pick], edge_v[pick]),
        )
        session.verify()
    return session


def _metrics(metrics) -> Dict[str, int]:
    return {
        "rounds": metrics.rounds,
        "messages": metrics.messages,
        "total_words": metrics.total_words,
        "max_message_words": metrics.max_message_words,
    }


def _regular(n, degree, seed):
    """The frozen ``tests/data/regular{n}x{degree}_seed{seed}.edges`` graph.

    The goldens were recorded on these seven random regular graphs
    (networkx's ``random_regular_graph`` stream); the committed edge lists
    keep the fixtures' inputs fixed, independent of the generators' seeds.
    """
    import numpy as np

    from repro.local_model.fast_network import FastNetwork

    edges = np.loadtxt(DATA_DIR / f"regular{n}x{degree}_seed{seed}.edges", dtype=np.int64)
    return FastNetwork.from_edge_array(edges[:, 0], edges[:, 1], num_nodes=n)


def _line_of_regular(n, degree, seed):
    from graph_oracles import line_graph_network

    return line_graph_network(_regular(n, degree, seed))


#: The seeded schedule of the ``dynamic_churn_regular32x8`` fixture.
CHURN_SCHEDULE = {"c": 8, "seed": 11, "steps": 6, "batch": 8}

#: fixture name -> (network builder, runner(network, engine)).
FIXTURES: Dict[str, Any] = {
    "legal_superlinear_regular24x4": (
        lambda: _regular(24, 4, 7),
        lambda network, engine: _legal(network, c=4, quality="superlinear", engine=engine),
    ),
    "legal_linear_grid5x5": (
        lambda: __import__("repro").graphs.grid_graph(5, 5),
        lambda network, engine: _legal(network, c=2, quality="linear", engine=engine),
    ),
    "edge_direct_superlinear_regular20x4": (
        lambda: _regular(20, 4, 5),
        lambda network, engine: _edge(
            network, quality="superlinear", route="direct", engine=engine
        ),
    ),
    "edge_simulation_linear_regular16x6": (
        lambda: _regular(16, 6, 2),
        lambda network, engine: _edge(
            network, quality="linear", route="simulation", engine=engine
        ),
    ),
    # Delta(L) = 30 > the superlinear threshold: the direct route actually
    # executes Corollary 5.4 recursion levels (the CSR edge kernel's path).
    "edge_direct_superlinear_regular40x16": (
        lambda: _regular(40, 16, 3),
        lambda network, engine: _edge(
            network, quality="superlinear", route="direct", engine=engine
        ),
    ),
    "defective_p3_line18x4": (
        lambda: _line_of_regular(18, 4, 2),
        lambda network, engine: _defective(network, b=1, p=3, c=2, engine=engine),
    ),
    "tradeoff_sqrt_line20x6": (
        lambda: _line_of_regular(20, 6, 13),
        lambda network, engine: _tradeoff(network, c=2, g_name="sqrt", engine=engine),
    ),
    "randomized_seed0_regular32x8": (
        lambda: _regular(32, 8, 21),
        lambda network, engine: _randomized(network, c=8, seed=0, engine=engine),
    ),
    # Dynamic recoloring under a seeded churn schedule: incremental patch +
    # conflict-ball repair on every step, verified legal throughout.
    "dynamic_churn_regular32x8": (
        lambda: _regular(32, 8, 21),
        lambda network, engine: _dynamic_churn(network, engine=engine, **CHURN_SCHEDULE),
    ),
}


def compute_fixture(name: str, engine: str = "reference") -> Dict[str, Any]:
    """Run one fixture and return its JSON-ready golden document."""
    build, run = FIXTURES[name]
    network = build()
    colors, summary = run(network, engine)
    return {
        "fixture": name,
        "num_nodes": network.num_nodes,
        "num_edges": network.num_edges,
        "colors_used": len(set(colors.values())),
        **summary,
        "coloring": sorted([repr(node), int(color)] for node, color in colors.items()),
    }


def golden_path(name: str) -> Path:
    return DATA_DIR / f"{name}.json"


def main() -> None:
    DATA_DIR.mkdir(exist_ok=True)
    for name in sorted(FIXTURES):
        document = compute_fixture(name, engine="reference")
        golden_path(name).write_text(json.dumps(document, indent=2) + "\n")
        print(f"wrote {golden_path(name)} ({document['num_nodes']} nodes, "
              f"{document['rounds']} rounds, palette {document['palette']})")


if __name__ == "__main__":
    main()
