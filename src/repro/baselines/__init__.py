"""Baseline algorithms: the "previous" rows of Tables 1 and 2.

* :mod:`repro.baselines.panconesi_rizzi` -- a ``(2 Delta - 1)``-edge-coloring
  whose round count grows (at least) linearly with ``Delta`` after a
  ``log* n`` additive term; the deterministic baseline of Table 1.
* :mod:`repro.baselines.greedy_reduction` -- the folklore class-by-class
  reduction (``O(Delta^2)`` rounds); a second, slower deterministic baseline.
* :mod:`repro.baselines.luby_random` -- a Luby-style randomized coloring
  (``O(log n)`` rounds w.h.p.); the randomized baseline of Table 2.
* :mod:`repro.baselines.sequential` -- centralized greedy colorings used as
  correctness oracles and palette yardsticks.

The three distributed edge baselines vertex-color ``L(G)`` and hand the run
to :func:`repro.core.edge_coloring.color_edges_via_line_graph`, which builds
the line graph and charges the Lemma 5.2 simulation cost on ``G``.
"""

from repro.baselines.greedy_reduction import greedy_reduction_edge_coloring
from repro.baselines.luby_random import (
    LubyRandomColoringPhase,
    luby_edge_coloring,
    luby_vertex_coloring,
)
from repro.baselines.panconesi_rizzi import panconesi_rizzi_edge_coloring
from repro.baselines.sequential import (
    greedy_sequential_edge_coloring,
    greedy_sequential_vertex_coloring,
)

__all__ = [
    "LubyRandomColoringPhase",
    "greedy_reduction_edge_coloring",
    "greedy_sequential_edge_coloring",
    "greedy_sequential_vertex_coloring",
    "luby_edge_coloring",
    "luby_vertex_coloring",
    "panconesi_rizzi_edge_coloring",
]
