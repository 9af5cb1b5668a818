"""Unit tests for the skew-adaptive quadtree index and its aG2 monitor.

The geometry and structure of :class:`QuadtreeIndex` are pinned here
(split/merge legality, leaf partition, stale-key resolution, the
uniform-depth cover fast path, cover-cache invalidation); the
behavioural split/merge policy of :class:`QuadtreeAG2Monitor` is
exercised with small deterministic streams.  The differential
correctness properties live in ``test_quadtree_property.py``.
"""

from __future__ import annotations

import random

import pytest

from repro.core.ag2 import AG2Monitor
from repro.core.geometry import Rect
from repro.core.grid import UniformGrid, default_cell_size
from repro.core.objects import SpatialObject
from repro.core.quadtree import (
    QuadtreeAG2Monitor,
    QuadtreeIndex,
    default_tile_size,
)
from repro.errors import InvalidParameterError
from repro.obs import Metrics
from repro.window import CountWindow


class TestIndexGeometry:
    def test_default_tile_size_is_four_grid_cells(self):
        assert default_tile_size(10.0, 10.0) == 4.0 * default_cell_size(
            10.0, 10.0
        )

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameterError):
            QuadtreeIndex(tile_size=0.0, min_leaf_size=1.0)
        with pytest.raises(InvalidParameterError):
            QuadtreeIndex(tile_size=16.0, min_leaf_size=0.0)
        with pytest.raises(InvalidParameterError):
            QuadtreeIndex(tile_size=16.0, min_leaf_size=32.0)

    def test_max_level_from_leaf_floor(self):
        # 16 -> 8 -> 4 -> 2: three halvings stay >= 2, a fourth would not
        assert QuadtreeIndex(16.0, 2.0).max_level == 3
        assert QuadtreeIndex(16.0, 16.0).max_level == 0
        # a floor just above a power-of-two boundary loses a level
        assert QuadtreeIndex(16.0, 2.1).max_level == 2

    def test_children_partition_parent_exactly(self):
        tree = QuadtreeIndex(16.0, 1.0)
        for key in [(0, 0, 0), (0, -3, 7), (2, 5, -9)]:
            x1, y1, x2, y2 = tree.cell_bounds(key)
            kids = tree.children(key)
            assert all(tree.parent(k) == key for k in kids)
            xs = sorted({b for k in kids for b in tree.cell_bounds(k)[0::2]})
            ys = sorted({b for k in kids for b in tree.cell_bounds(k)[1::2]})
            assert xs[0] == x1 and xs[-1] == x2
            assert ys[0] == y1 and ys[-1] == y2

    def test_top_level_has_no_parent(self):
        with pytest.raises(InvalidParameterError):
            QuadtreeIndex(16.0, 1.0).parent((0, 0, 0))


class TestSplitMerge:
    def test_split_and_merge_legality(self):
        tree = QuadtreeIndex(16.0, 2.0)
        tree.split((0, 0, 0))
        assert tree.is_split((0, 0, 0))
        with pytest.raises(InvalidParameterError):
            tree.split((0, 0, 0))  # already split
        tree.split((1, 0, 0))
        with pytest.raises(InvalidParameterError):
            tree.merge((0, 0, 0))  # has a split child; merge bottom-up
        with pytest.raises(InvalidParameterError):
            tree.merge((1, 1, 1))  # never split
        tree.merge((1, 0, 0))
        tree.merge((0, 0, 0))
        assert tree.split_count == 0

    def test_split_stops_at_leaf_floor(self):
        tree = QuadtreeIndex(16.0, 8.0)  # one level only
        tree.split((0, 0, 0))
        assert not tree.can_split((1, 0, 0))
        with pytest.raises(InvalidParameterError):
            tree.split((1, 0, 0))

    def test_resolve_down_up_and_live(self):
        tree = QuadtreeIndex(16.0, 1.0)
        tree.split((0, 0, 0))
        tree.split((1, 1, 1))
        # a pre-split key resolves down to its subtree's current leaves
        assert tree.resolve((0, 0, 0)) == tree.leaves_under((0, 0, 0))
        assert len(tree.resolve((0, 0, 0))) == 7
        # a live leaf resolves to itself
        assert tree.resolve((1, 0, 0)) == ((1, 0, 0),)
        assert tree.is_leaf((1, 0, 0))
        assert not tree.is_leaf((0, 0, 0))
        # a key recorded below the current leaf resolves up to it
        tree.merge((1, 1, 1))
        assert tree.resolve((2, 2, 2)) == ((1, 1, 1),)
        tree.merge((0, 0, 0))
        assert tree.resolve((2, 2, 2)) == ((0, 0, 0),)


def _brute_cover(tree: QuadtreeIndex, rect: Rect):
    """Reference cover: every current leaf strictly overlapping rect,
    found by enumerating tiles and descending via leaves_under."""
    if rect.x1 == rect.x2 or rect.y1 == rect.y2:
        return []  # degenerate rectangles overlap nothing
    out = []
    span = 6  # test rects live well inside [-span, span] tiles
    for i in range(-span, span):
        for j in range(-span, span):
            for leaf in tree.leaves_under((0, i, j)):
                x1, y1, x2, y2 = tree.cell_bounds(leaf)
                if (
                    rect.x1 < x2
                    and x1 < rect.x2
                    and rect.y1 < y2
                    and y1 < rect.y2
                ):
                    out.append(leaf)
    return sorted(out)


class TestCovers:
    def test_unsplit_forest_matches_uniform_grid(self):
        tree = QuadtreeIndex(16.0, 2.0)
        grid = UniformGrid(cell_size=16.0)
        for rect in [
            Rect(1.0, 1.0, 5.0, 5.0),
            Rect(-3.0, 12.0, 20.0, 17.0),
            Rect(0.0, 0.0, 16.0, 16.0),  # edge-aligned
            Rect(4.0, 4.0, 4.0, 9.0),  # degenerate: covers nothing
        ]:
            quad = tree.cell_keys(rect)
            flat = grid.cell_keys(rect)
            assert quad == tuple((0, i, j) for i, j in flat)

    def test_mixed_depth_cover_matches_brute_force(self):
        tree = QuadtreeIndex(16.0, 2.0)
        tree.split((0, 0, 0))
        tree.split((1, 0, 0))
        tree.split((0, 1, 0))  # second tile, single level
        rect = Rect(2.0, 2.0, 30.0, 10.0)
        assert sorted(tree.cell_keys(rect)) == _brute_cover(tree, rect)

    def test_uniform_depth_fast_path_matches_descent(self):
        """A complete 4^d split resolves through grid arithmetic; the
        result must be identical to the cached-descent cover."""
        tree = QuadtreeIndex(16.0, 2.0)
        tree.split((0, 0, 0))
        for child in tree.children((0, 0, 0)):
            tree.split(child)
        assert tree._tile_uniform[(0, 0)] == 2
        for rect in [
            Rect(0.5, 0.5, 3.9, 3.9),
            Rect(-2.0, 7.0, 9.0, 22.0),
            Rect(0.0, 0.0, 16.0, 16.0),
            Rect(3.9999999, 0.1, 4.0000001, 0.2),  # float edge straddle
        ]:
            assert sorted(tree.cell_keys(rect)) == _brute_cover(tree, rect)

    def test_partial_split_disables_fast_path(self):
        tree = QuadtreeIndex(16.0, 2.0)
        tree.split((0, 0, 0))
        tree.split((1, 0, 0))  # mixed leaf depths: 1 and 2
        assert tree._tile_uniform[(0, 0)] == -1
        rect = Rect(1.0, 1.0, 15.0, 15.0)
        assert sorted(tree.cell_keys(rect)) == _brute_cover(tree, rect)
        # splitting the remaining children completes a 4^2 partition
        for child in tree.children((0, 0, 0))[1:]:
            tree.split(child)
        assert tree._tile_uniform[(0, 0)] == 2
        assert sorted(tree.cell_keys(rect)) == _brute_cover(tree, rect)
        # removing one level-2 block makes the depths mixed again
        tree.merge((1, 0, 0))
        assert tree._tile_uniform[(0, 0)] == -1
        assert sorted(tree.cell_keys(rect)) == _brute_cover(tree, rect)

    def test_cover_cache_invalidated_by_restructure(self):
        tree = QuadtreeIndex(16.0, 2.0)
        tree.split((0, 0, 0))
        tree.split((1, 0, 0))  # mixed depths: covers go through the cache
        rect = Rect(1.0, 1.0, 15.0, 15.0)
        before = tree.cell_keys(rect)
        assert tree.cell_keys(rect) == before  # cache hit, same cover
        tree.split((1, 1, 1))
        after = tree.cell_keys(rect)
        assert set(after) != set(before)
        assert sorted(after) == _brute_cover(tree, rect)

    def test_restructure_elsewhere_keeps_other_tiles_cached(self):
        tree = QuadtreeIndex(16.0, 2.0)
        tree.split((0, 0, 0))
        tree.split((1, 0, 0))
        tree.split((0, 3, 3))
        rect = Rect(1.0, 1.0, 7.0, 7.0)
        tree.cell_keys(rect)
        cached = dict(tree._cover_cache)
        tree.split((1, 7, 7))  # under tile (3, 3), far from rect
        assert all(key in tree._cover_cache for key in cached)


def _cluster(n: int, cx: float, cy: float, spread: float, rng):
    return [
        SpatialObject(
            x=cx + rng.uniform(-spread, spread),
            y=cy + rng.uniform(-spread, spread),
            weight=1.0,
        )
        for _ in range(n)
    ]


class TestMonitorPolicy:
    def test_parameter_validation(self):
        with pytest.raises(InvalidParameterError):
            QuadtreeAG2Monitor(4.0, 4.0, CountWindow(10), split_occupancy=0)
        with pytest.raises(InvalidParameterError):
            QuadtreeAG2Monitor(
                4.0, 4.0, CountWindow(10), split_occupancy=8, merge_occupancy=8
            )
        with pytest.raises(InvalidParameterError):
            QuadtreeAG2Monitor(4.0, 4.0, CountWindow(10), load_decay=1.0)
        with pytest.raises(InvalidParameterError):
            QuadtreeAG2Monitor(4.0, 4.0, CountWindow(10), split_load=0.0)

    def test_defaults_derive_from_query(self):
        monitor = QuadtreeAG2Monitor(10.0, 10.0, CountWindow(10))
        assert monitor.index_backend == "quadtree"
        assert monitor.tree.tile_size == default_tile_size(10.0, 10.0)
        assert monitor.tree.min_leaf_size == 10.0
        assert monitor.split_load == 4.0 * monitor.split_occupancy

    def test_hotspot_splits_and_answers_match_grid(self):
        rng = random.Random(7)
        monitor = QuadtreeAG2Monitor(
            4.0, 4.0, CountWindow(120), split_occupancy=10, merge_occupancy=4
        )
        monitor.attach_metrics(Metrics("quadtree"))
        grid = AG2Monitor(4.0, 4.0, CountWindow(120))
        for _ in range(6):
            batch = _cluster(20, 40.0, 40.0, 3.0, rng)
            a = monitor.update(batch)
            b = grid.update(batch)
            assert a.best_weight == pytest.approx(b.best_weight)
            monitor.check_invariants()
        assert monitor.max_depth > 0
        assert (
            monitor.metrics.snapshot().counters.get("quadtree_splits", 0) > 0
        )
        assert sum(monitor.leaf_depths.values()) == len(monitor._cells)

    def test_drifted_hotspot_merges_back(self):
        rng = random.Random(11)
        monitor = QuadtreeAG2Monitor(
            4.0,
            4.0,
            CountWindow(60),
            split_occupancy=10,
            merge_occupancy=4,
        )
        monitor.attach_metrics(Metrics("quadtree"))
        for _ in range(4):
            monitor.update(_cluster(20, 40.0, 40.0, 3.0, rng))
        assert monitor.tree.split_count > 0
        # the hotspot moves far away; the old region expires and cools
        for _ in range(12):
            monitor.update(_cluster(20, 4000.0, 4000.0, 3.0, rng))
            monitor.check_invariants()
        merges = monitor.metrics.snapshot().counters.get("quadtree_merges", 0)
        assert merges > 0

    @staticmethod
    def _drift_with_warm_trickle(merge_load: float) -> float:
        """Drive an identical seeded stream where the hotspot drifts
        away but one arrival per batch keeps the old region's load warm
        while its occupancy falls below the merge threshold."""
        rng = random.Random(13)
        monitor = QuadtreeAG2Monitor(
            4.0,
            4.0,
            CountWindow(60),
            split_occupancy=10,
            merge_occupancy=4,
            merge_load=merge_load,
        )
        monitor.attach_metrics(Metrics("quadtree"))
        for _ in range(4):
            monitor.update(_cluster(20, 40.0, 40.0, 3.0, rng))
        for _ in range(12):
            batch = _cluster(20, 4000.0, 4000.0, 3.0, rng)
            batch += _cluster(1, 40.0, 40.0, 1.0, rng)
            monitor.update(batch)
            monitor.check_invariants()
        return monitor.metrics.snapshot().counters.get("quadtree_merges", 0)

    def test_merge_load_hysteresis_blocks_hot_merges(self):
        """With merge_load=0 a still-warm region can never merge, so an
        identical stream must see strictly fewer merges than under a
        permissive load bound — the anti-thrash hysteresis at work."""
        permissive = self._drift_with_warm_trickle(merge_load=1e9)
        strict = self._drift_with_warm_trickle(merge_load=0.0)
        assert strict < permissive
