"""Unit and property tests for the uniform grid mapping."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.geometry import Rect
from repro.core.grid import UniformGrid, default_cell_size
from repro.errors import InvalidParameterError


class TestConstruction:
    def test_cell_size_validation(self):
        with pytest.raises(InvalidParameterError):
            UniformGrid(cell_size=0)
        with pytest.raises(InvalidParameterError):
            UniformGrid(cell_size=-1)

    def test_default_cell_size(self):
        assert default_cell_size(100, 50) == 200.0
        assert default_cell_size(10, 400) == 800.0


class TestCellMath:
    def test_cell_of_point(self):
        g = UniformGrid(cell_size=10.0)
        assert g.cell_of_point(0.0, 0.0) == (0, 0)
        assert g.cell_of_point(15.0, 25.0) == (1, 2)
        assert g.cell_of_point(-0.1, 0.0) == (-1, 0)

    def test_cell_bounds_roundtrip(self):
        g = UniformGrid(cell_size=10.0, origin_x=5.0, origin_y=-5.0)
        bounds = g.cell_bounds((2, -1))
        assert bounds == Rect(25.0, -15.0, 35.0, -5.0)

    def test_rect_within_one_cell(self):
        g = UniformGrid(cell_size=10.0)
        keys = list(g.cells_overlapping(Rect(1, 1, 4, 4)))
        assert keys == [(0, 0)]

    def test_rect_spanning_four_cells(self):
        g = UniformGrid(cell_size=10.0)
        keys = set(g.cells_overlapping(Rect(8, 8, 12, 12)))
        assert keys == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_rect_on_boundary_maps_one_side(self):
        g = UniformGrid(cell_size=10.0)
        # rect exactly [10,20]x[0,10]: interior lies in cell (1,0) only
        keys = set(g.cells_overlapping(Rect(10, 0, 20, 10)))
        assert keys == {(1, 0)}

    def test_degenerate_rect_maps_nowhere(self):
        g = UniformGrid(cell_size=10.0)
        assert list(g.cells_overlapping(Rect(3, 0, 3, 9))) == []

    def test_large_rect_covers_block(self):
        g = UniformGrid(cell_size=5.0)
        keys = set(g.cells_overlapping(Rect(0, 0, 20, 10)))
        assert keys == {(i, j) for i in range(4) for j in range(2)}

    def test_negative_coordinates(self):
        g = UniformGrid(cell_size=10.0)
        keys = set(g.cells_overlapping(Rect(-15, -5, -2, 5)))
        assert keys == {(-2, -1), (-1, -1), (-2, 0), (-1, 0)}


coord = st.floats(
    min_value=-1000.0, max_value=1000.0, allow_nan=False, allow_infinity=False
)
size = st.floats(min_value=0.01, max_value=500.0)


@st.composite
def rects(draw):
    x1 = draw(coord)
    y1 = draw(coord)
    return Rect(x1, y1, x1 + draw(size), y1 + draw(size))


@settings(max_examples=200, deadline=None)
@given(rect=rects(), cell_size=st.floats(min_value=0.5, max_value=300.0))
def test_mapped_cells_actually_overlap(rect: Rect, cell_size: float):
    """Every mapped cell genuinely overlaps the rectangle, and the map
    is exactly the set of overlapping cells (no misses around
    boundaries/float edges)."""
    g = UniformGrid(cell_size=cell_size)
    keys = set(g.cells_overlapping(rect))
    if not keys:
        return
    # A cell's x-extent depends only on i and its y-extent only on j,
    # and Rect.overlaps is an x-test AND a y-test, so cell (i, j)
    # overlaps iff column i does and row j does.  The map is therefore
    # right iff it is the full block I x J and, through one mapped
    # cell, I and J are exactly the overlapping columns and rows of the
    # block plus its neighbourhood ring.  Checking it per axis keeps a
    # 500-wide rect on 0.5 cells at ~10^3 checks instead of ~10^6.
    i_values = {k[0] for k in keys}
    j_values = {k[1] for k in keys}
    assert len(keys) == len(i_values) * len(j_values)
    i0, j0 = min(i_values), min(j_values)
    assert g.cell_bounds((i0, j0)).overlaps(rect)
    for i in range(i0 - 1, max(i_values) + 2):
        assert (i in i_values) == g.cell_bounds((i, j0)).overlaps(rect)
    for j in range(j0 - 1, max(j_values) + 2):
        assert (j in j_values) == g.cell_bounds((i0, j)).overlaps(rect)


@settings(max_examples=200, deadline=None)
@given(a=rects(), b=rects(), cell_size=st.floats(min_value=0.5, max_value=300.0))
def test_overlapping_rects_share_a_cell(a: Rect, b: Rect, cell_size: float):
    """The G2 correctness precondition: any two overlapping rectangles
    are mapped to at least one common cell."""
    if not a.overlaps(b):
        return
    g = UniformGrid(cell_size=cell_size)
    assert not set(g.cells_overlapping(a)).isdisjoint(g.cells_overlapping(b))


class TestCellKeysCache:
    """``cell_keys`` is the tuple-returning form of
    ``cells_overlapping`` used by every grid-backed monitor."""

    def test_matches_cells_overlapping(self):
        g = UniformGrid(cell_size=10.0)
        rect = Rect(3.0, 7.0, 26.0, 12.0)
        assert list(g.cells_overlapping(rect)) == list(g.cell_keys(rect))

    def test_degenerate_rect_maps_nowhere(self):
        g = UniformGrid(cell_size=10.0)
        assert g.cell_keys(Rect(5.0, 5.0, 5.0, 5.0)) == ()

    def test_distinct_geometry_distinct_entries(self):
        a = UniformGrid(cell_size=10.0)
        b = UniformGrid(cell_size=10.0, origin_x=5.0)
        rect = Rect(1.0, 1.0, 9.0, 9.0)
        assert a.cell_keys(rect) != b.cell_keys(rect)
