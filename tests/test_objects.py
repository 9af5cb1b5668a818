"""Unit tests for the stream object model and the dual transform."""

from __future__ import annotations

import pytest

from repro.core.objects import (
    SpatialObject,
    WeightedRect,
    object_ids,
    to_weighted_rects,
)
from repro.errors import InvalidParameterError


class TestSpatialObject:
    def test_fields(self):
        o = SpatialObject(x=1.0, y=2.0, weight=3.0, timestamp=4.0, oid=9)
        assert (o.x, o.y, o.weight, o.timestamp, o.oid) == (1, 2, 3, 4, 9)

    def test_auto_ids_are_unique_and_increasing(self):
        a = SpatialObject(x=0, y=0)
        b = SpatialObject(x=0, y=0)
        assert a.oid != b.oid
        assert b.oid > a.oid

    def test_default_weight_is_one(self):
        assert SpatialObject(x=0, y=0).weight == 1.0

    def test_negative_weight_rejected(self):
        with pytest.raises(InvalidParameterError):
            SpatialObject(x=0, y=0, weight=-0.5)

    def test_nan_weight_rejected(self):
        with pytest.raises(InvalidParameterError):
            SpatialObject(x=0, y=0, weight=float("nan"))

    def test_nan_timestamp_rejected(self):
        with pytest.raises(InvalidParameterError):
            SpatialObject(x=0, y=0, timestamp=float("nan"))

    def test_infinite_timestamps_allowed(self):
        for t in (float("inf"), float("-inf")):
            assert SpatialObject(x=0, y=0, timestamp=t).timestamp == t

    def test_zero_weight_allowed(self):
        assert SpatialObject(x=0, y=0, weight=0.0).weight == 0.0

    def test_non_finite_location_rejected(self):
        with pytest.raises(InvalidParameterError):
            SpatialObject(x=float("inf"), y=0)
        with pytest.raises(InvalidParameterError):
            SpatialObject(x=0, y=float("nan"))

    def test_to_rect_centres_on_object(self):
        o = SpatialObject(x=10, y=20, weight=1)
        r = o.to_rect(4, 6)
        assert r.center == (10, 20)
        assert r.width == 4 and r.height == 6

    def test_frozen(self):
        o = SpatialObject(x=0, y=0)
        with pytest.raises(AttributeError):
            o.x = 5.0  # type: ignore[misc]


class TestWeightedRect:
    def test_from_object(self):
        o = SpatialObject(x=5, y=5, weight=7.5)
        wr = WeightedRect.from_object(o, 2, 2)
        assert wr.weight == 7.5
        assert wr.obj is o
        assert wr.oid == o.oid
        assert wr.rect.center == (5, 5)

    def test_to_weighted_rects_batch(self):
        objs = [SpatialObject(x=i, y=i, weight=i) for i in range(1, 4)]
        rects = to_weighted_rects(objs, 2, 2)
        assert [wr.weight for wr in rects] == [1, 2, 3]
        assert all(wr.rect.width == 2 for wr in rects)

    def test_to_weighted_rects_rejects_bad_size(self):
        with pytest.raises(InvalidParameterError):
            to_weighted_rects([], 0, 1)
        with pytest.raises(InvalidParameterError):
            to_weighted_rects([], 1, -2)

    def test_object_ids_order(self):
        objs = [SpatialObject(x=0, y=0, oid=i) for i in (5, 2, 9)]
        assert object_ids(objs) == [5, 2, 9]


class TestDualRectCache:
    """``dual_rect`` is the named form of ``WeightedRect.from_object``
    the graph monitors route arrivals through; it caches nothing."""

    def test_equals_uncached_transform(self):
        from repro.core.objects import dual_rect

        o = SpatialObject(x=3.5, y=-2.0, weight=4.0, oid=17)
        cached = dual_rect(o, 10.0, 6.0)
        reference = WeightedRect.from_object(o, 10.0, 6.0)
        assert cached.rect == reference.rect
        assert cached.weight == reference.weight
        assert cached.obj is o
