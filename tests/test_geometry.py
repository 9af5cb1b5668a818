"""Unit tests for geometric primitives (strict-interior semantics)."""

from __future__ import annotations

import math

import pytest

from repro.core.geometry import Interval, Rect, bounding_box
from repro.errors import InvalidGeometryError


class TestInterval:
    def test_basic_properties(self):
        iv = Interval(2.0, 6.0)
        assert iv.length == 4.0
        assert iv.mid == 4.0

    def test_inverted_bounds_rejected(self):
        with pytest.raises(InvalidGeometryError):
            Interval(5.0, 1.0)

    def test_nan_bounds_rejected(self):
        with pytest.raises(InvalidGeometryError):
            Interval(float("nan"), 1.0)

    def test_degenerate_interval_allowed(self):
        iv = Interval(3.0, 3.0)
        assert iv.length == 0.0

    def test_overlap_strict_interior(self):
        assert Interval(0, 2).overlaps(Interval(1, 3))
        assert not Interval(0, 2).overlaps(Interval(2, 4))  # touching
        assert not Interval(0, 2).overlaps(Interval(3, 4))  # disjoint

    def test_overlap_containment(self):
        assert Interval(0, 10).overlaps(Interval(4, 5))
        assert Interval(4, 5).overlaps(Interval(0, 10))

    def test_degenerate_never_overlaps(self):
        assert not Interval(1, 1).overlaps(Interval(0, 2))

    def test_intersection(self):
        assert Interval(0, 5).intersection(Interval(3, 8)) == Interval(3, 5)
        assert Interval(0, 5).intersection(Interval(5, 8)) is None

    def test_contains_strict(self):
        iv = Interval(0, 2)
        assert iv.contains(1.0)
        assert not iv.contains(0.0)
        assert not iv.contains(2.0)


class TestRectConstruction:
    def test_valid(self):
        r = Rect(0, 0, 4, 2)
        assert r.width == 4 and r.height == 2 and r.area == 8

    def test_inverted_x_rejected(self):
        with pytest.raises(InvalidGeometryError):
            Rect(4, 0, 0, 2)

    def test_inverted_y_rejected(self):
        with pytest.raises(InvalidGeometryError):
            Rect(0, 2, 4, 0)

    def test_nan_rejected(self):
        with pytest.raises(InvalidGeometryError):
            Rect(float("nan"), 0, 1, 1)

    def test_infinite_rejected(self):
        with pytest.raises(InvalidGeometryError):
            Rect(0, 0, math.inf, 1)

    @pytest.mark.parametrize("slot", range(4))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_bound_messages(self, slot, bad):
        """Every non-finite bound is refused with the message of the
        first failed check: NaN and a bound that inverts its interval
        fail the order check, any other infinity the finite check."""
        bounds = [0.0, 0.0, 1.0, 1.0]
        bounds[slot] = bad
        x1, y1, x2, y2 = bounds
        inverted = not (x1 <= x2 and y1 <= y2)
        expected = (
            "rect bounds inverted or NaN: "
            f"[{x1}, {x2}] x [{y1}, {y2}]"
            if inverted
            else "rect bounds must be finite"
        )
        with pytest.raises(InvalidGeometryError) as info:
            Rect(*bounds)
        assert str(info.value) == expected
        if math.isnan(bad):
            assert inverted

    def test_inverted_bounds_message(self):
        with pytest.raises(InvalidGeometryError) as info:
            Rect(4.0, 0.0, 0.0, 2.0)
        assert str(info.value) == (
            "rect bounds inverted or NaN: [4.0, 0.0] x [0.0, 2.0]"
        )

    def test_from_center(self):
        r = Rect.from_center(10, 20, 4, 6)
        assert (r.x1, r.y1, r.x2, r.y2) == (8, 17, 12, 23)
        assert r.center == (10, 20)

    def test_from_center_negative_size_rejected(self):
        with pytest.raises(InvalidGeometryError):
            Rect.from_center(0, 0, -1, 1)

    def test_degenerate_flags(self):
        assert Rect(0, 0, 0, 5).is_degenerate
        assert Rect(0, 0, 5, 0).is_degenerate
        assert not Rect(0, 0, 1, 1).is_degenerate

    def test_value_equality(self):
        assert Rect(0, 0, 1, 1) == Rect(0.0, 0.0, 1.0, 1.0)
        assert hash(Rect(0, 0, 1, 1)) == hash(Rect(0, 0, 1, 1))


class TestRectPredicates:
    def test_overlap_positive_area(self):
        assert Rect(0, 0, 2, 2).overlaps(Rect(1, 1, 3, 3))

    def test_edge_touch_is_not_overlap(self):
        assert not Rect(0, 0, 2, 2).overlaps(Rect(2, 0, 4, 2))
        assert not Rect(0, 0, 2, 2).overlaps(Rect(0, 2, 2, 4))

    def test_corner_touch_is_not_overlap(self):
        assert not Rect(0, 0, 2, 2).overlaps(Rect(2, 2, 4, 4))

    def test_overlap_is_symmetric(self):
        a, b = Rect(0, 0, 3, 3), Rect(2, 2, 5, 5)
        assert a.overlaps(b) == b.overlaps(a) is True

    def test_containment_overlaps(self):
        assert Rect(0, 0, 10, 10).overlaps(Rect(4, 4, 5, 5))

    def test_degenerate_overlaps_nothing(self):
        assert not Rect(1, 0, 1, 5).overlaps(Rect(0, 0, 2, 2))

    def test_contains_point_strict(self):
        r = Rect(0, 0, 2, 2)
        assert r.contains_point(1, 1)
        assert not r.contains_point(0, 1)
        assert not r.contains_point(1, 2)

    def test_covers_point_closed(self):
        r = Rect(0, 0, 2, 2)
        assert r.covers_point(0, 0)
        assert r.covers_point(2, 2)
        assert not r.covers_point(2.1, 1)

    def test_contains_rect(self):
        assert Rect(0, 0, 10, 10).contains_rect(Rect(1, 1, 9, 9))
        assert Rect(0, 0, 10, 10).contains_rect(Rect(0, 0, 10, 10))
        assert not Rect(0, 0, 10, 10).contains_rect(Rect(5, 5, 11, 9))


class TestRectCombination:
    def test_intersection(self):
        got = Rect(0, 0, 4, 4).intersection(Rect(2, 1, 6, 3))
        assert got == Rect(2, 1, 4, 3)

    def test_intersection_disjoint_is_none(self):
        assert Rect(0, 0, 1, 1).intersection(Rect(5, 5, 6, 6)) is None

    def test_intersection_touching_is_none(self):
        assert Rect(0, 0, 1, 1).intersection(Rect(1, 0, 2, 1)) is None

    def test_clip_alias(self):
        a, b = Rect(0, 0, 4, 4), Rect(2, 2, 6, 6)
        assert a.clip(b) == a.intersection(b)

    def test_union_bounds(self):
        got = Rect(0, 0, 1, 1).union_bounds(Rect(5, -2, 6, 3))
        assert got == Rect(0, -2, 6, 3)

    def test_translate(self):
        assert Rect(0, 0, 1, 2).translate(5, -1) == Rect(5, -1, 6, 1)

    def test_intervals(self):
        r = Rect(1, 2, 3, 5)
        assert r.x_interval == Interval(1, 3)
        assert r.y_interval == Interval(2, 5)


class TestBoundingBox:
    def test_single(self):
        assert bounding_box([Rect(1, 2, 3, 4)]) == Rect(1, 2, 3, 4)

    def test_many(self):
        rects = [Rect(0, 0, 1, 1), Rect(-2, 3, 0, 5), Rect(4, -1, 6, 0)]
        assert bounding_box(rects) == Rect(-2, -1, 6, 5)

    def test_empty_raises(self):
        with pytest.raises(InvalidGeometryError):
            bounding_box([])
