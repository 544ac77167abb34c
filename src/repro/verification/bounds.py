"""Per-theorem bound checkers.

These helpers turn the paper's quantitative statements into executable
assertions used by the test-suite and the benchmark harnesses:

* Theorem 3.7 -- the defect bound of Procedure Defective-Color,
* Theorems 4.5 / 4.6 / 4.8 and 5.3 / 5.5 -- the palette bounds of the legal
  colorings (checked through the palette bound carried by the result objects
  plus legality of the coloring itself).
"""

from __future__ import annotations

from repro.exceptions import ColoringError
from repro.verification.coloring import (
    ColorsLike,
    FastNetwork,
    assert_legal_vertex_coloring,
    coloring_defect,
    max_color,
    min_color,
)


def theorem_3_7_defect_bound(Lambda: int, b: int, p: int, c: int) -> int:
    """The Theorem 3.7 defect bound ``c * (Lambda/(b p) + Lambda/p + 1)``.

    Evaluated with integer floors exactly as the implementation guarantees it
    (see :class:`repro.core.defective_coloring.DefectiveColorInfo`).
    """
    return c * (Lambda // (b * p) + Lambda // p + 1)


def assert_defective_coloring(
    network: FastNetwork,
    colors: ColorsLike,
    max_defect: int,
    max_palette: int,
    context: str = "defective coloring",
) -> None:
    """Check a defective coloring against its claimed defect and palette bounds."""
    measured_defect = coloring_defect(network, colors)
    if measured_defect > max_defect:
        raise ColoringError(
            f"{context}: measured defect {measured_defect} exceeds the bound {max_defect}"
        )
    largest = max_color(colors)
    if largest > max_palette:
        raise ColoringError(
            f"{context}: color {largest} exceeds the declared palette {max_palette}"
        )
    smallest = min_color(colors)
    if smallest < 1:
        raise ColoringError(f"{context}: colors must be positive, found {smallest}")


def verify_legal_coloring_result(
    network: FastNetwork,
    colors: ColorsLike,
    palette_bound: int,
    context: str = "legal coloring",
) -> None:
    """Check a legal coloring: legality plus respect of the declared palette."""
    assert_legal_vertex_coloring(network, colors, context=context)
    largest = max_color(colors)
    if largest > palette_bound:
        raise ColoringError(
            f"{context}: color {largest} exceeds the declared palette bound {palette_bound}"
        )
