"""Uniform grid used by the G2 / aG2 indexes (paper §4.1).

The paper maps every dual rectangle to *all* grid cells it overlaps, so
any two overlapping rectangles are guaranteed to share at least one
cell — the per-cell graphs then collectively capture every overlap.
Cells are addressed by integer coordinates and materialised lazily
(sparse dict in the indexes), so the grid itself is just coordinate
arithmetic and never stores data.

A small robustness detail: the cell-range computation widens by one cell
whenever floating-point division could have excluded a sliver overlap.
Assigning a rectangle to an extra cell is harmless (a duplicate vertex
copy), missing one would break correctness, so we err wide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from repro.core.geometry import Rect
from repro.errors import InvalidParameterError

__all__ = ["UniformGrid", "CellKey", "default_cell_size"]

CellKey = tuple[int, int]


def _axis_cells(lo: float, hi: float, origin: float, cs: float) -> range:
    i0 = math.floor((lo - origin) / cs)
    i1 = math.floor((hi - origin) / cs)
    # widen against float rounding, then trim by the strict-overlap
    # predicate: cell i spans (origin + i*cs, origin + (i+1)*cs)
    i0 -= 1
    i1 += 1
    while origin + (i0 + 1) * cs <= lo:
        i0 += 1
    while origin + i1 * cs >= hi:
        i1 -= 1
    return range(i0, i1 + 1)


def default_cell_size(rect_width: float, rect_height: float) -> float:
    """Default grid resolution: twice the larger query-rectangle side.

    The paper fixes the cell size without prescribing it; a cell a
    couple of query sizes wide keeps each rectangle mapped to at most
    ~4 cells while the per-cell population stays small enough for the
    pairwise overlap step.
    """
    return 2.0 * max(rect_width, rect_height)


@dataclass(frozen=True, slots=True)
class UniformGrid:
    """Coordinate arithmetic for a uniform grid of ``cell_size`` squares."""

    cell_size: float
    origin_x: float = 0.0
    origin_y: float = 0.0

    def __post_init__(self) -> None:
        if not self.cell_size > 0:
            raise InvalidParameterError(
                f"grid cell size must be positive, got {self.cell_size}"
            )

    def cell_of_point(self, x: float, y: float) -> CellKey:
        """The cell containing the point (boundary points go right/up)."""
        return (
            math.floor((x - self.origin_x) / self.cell_size),
            math.floor((y - self.origin_y) / self.cell_size),
        )

    def cell_extent(self, key: CellKey) -> tuple[float, float, float, float]:
        """``(x1, y1, x2, y2)`` of a cell: the bounds :func:`_axis_cells`
        tests a rectangle against, float for float, so every rectangle
        mapped to the cell meets the open extent."""
        i, j = key
        cs = self.cell_size
        ox, oy = self.origin_x, self.origin_y
        return ox + i * cs, oy + j * cs, ox + (i + 1) * cs, oy + (j + 1) * cs

    def cell_bounds(self, key: CellKey) -> Rect:
        """The spatial extent of a cell (:meth:`cell_extent`)."""
        return Rect(*self.cell_extent(key))

    def cell_keys(self, rect: Rect) -> tuple[CellKey, ...]:
        """The cell cover of a rectangle as a tuple.

        Same semantics as :meth:`cells_overlapping`.  The graph
        monitors' batch route (``ArrivalTable.route``) calls
        :func:`_axis_cells` itself and stores the cover as
        ``i0..i1 × j0..j1``.
        """
        if rect.is_degenerate:
            return ()
        cs = self.cell_size
        return tuple(
            (i, j)
            for i in _axis_cells(rect.x1, rect.x2, self.origin_x, cs)
            for j in _axis_cells(rect.y1, rect.y2, self.origin_y, cs)
        )

    def cells_overlapping(self, rect: Rect) -> Iterator[CellKey]:
        """All cells whose interior intersects the rectangle's interior.

        Degenerate rectangles overlap nothing (strict-interior
        convention) and yield no cells.
        """
        return iter(self.cell_keys(rect))
