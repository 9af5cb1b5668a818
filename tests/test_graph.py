"""Unit tests for the per-cell dynamic overlap graph and its flat layout."""

from __future__ import annotations

import random
from array import array

from conftest import connect_rect
from repro.core.geometry import Rect
from repro.core.graph import CellGraph
from repro.core.objects import SpatialObject, WeightedRect


def wr(x1, y1, x2, y2, w=1.0) -> WeightedRect:
    obj = SpatialObject(x=(x1 + x2) / 2, y=(y1 + y2) / 2, weight=w)
    return WeightedRect(rect=Rect(x1, y1, x2, y2), weight=w, obj=obj)


class TestVertex:
    def test_initial_state(self):
        g = CellGraph()
        rect = wr(0, 0, 4, 4, w=2.0)
        connect_rect(g, rect, 7)
        (v,) = g
        assert v.seq == 7
        assert v.wr == rect  # rebuilt from the buffer row and object
        assert v.neighbors == ()
        assert v.fresh == ()
        assert v.space.weight == 2.0
        assert v.space.rect == rect.rect
        assert v.space.anchor_oid == rect.oid
        assert v.upper == 2.0
        assert not v.dirty
        assert g.marks[0] == 7  # watermark: its own seq before any sweep

    def test_view_survives_compaction(self):
        g = CellGraph()
        for seq in range(100):
            connect_rect(g, wr(seq * 10, 0, seq * 10 + 2, 2, w=float(seq)), seq)
        v = g.vertex(90)
        g.expire_upto(79)  # 80 of 100 dead: the prefix is compacted
        assert g.head == 0 and g.base == 80
        assert v.index == 10
        assert v.seq == 90 and v.wr.weight == 90.0


class TestCellGraph:
    def test_connect_builds_edges_old_to_new(self):
        g = CellGraph()
        a = wr(0, 0, 4, 4, w=1.0)
        b = wr(2, 2, 6, 6, w=2.0)
        connect_rect(g, a, 0)
        hits = array("q")
        assert connect_rect(g, b, 1, hits) == 1
        va, vb = g
        # edge held by the OLDER vertex (Definition 5)
        assert list(hits) == [0]
        assert va.neighbors == (b,)
        assert vb.neighbors == ()
        assert va.dirty
        assert va.upper == 3.0  # Equation (3)

    def test_connect_skips_non_overlapping(self):
        g = CellGraph()
        connect_rect(g, wr(0, 0, 2, 2), 0)
        hits = array("q")
        assert connect_rect(g, wr(10, 10, 12, 12), 1, hits) == 0
        assert list(hits) == []

    def test_connect_touching_is_no_edge(self):
        g = CellGraph()
        connect_rect(g, wr(0, 0, 2, 2), 0)
        connect_rect(g, wr(2, 0, 4, 2), 1)
        va, _ = g
        assert va.neighbors == ()
        assert not va.dirty

    def test_connect_edges_match_rect_overlaps(self):
        """Every edge, and every missing one, is what ``Rect.overlaps``
        says: shared boundaries, degenerate rectangles and signed zeros
        included."""
        rng = random.Random(11)
        coords = [-1.0, -0.0, 0.0, 0.5, 1.0, 2.0]
        hits = array("q")
        for _ in range(200):
            g = CellGraph()
            rects = []
            for seq in range(8):
                xa, xb = sorted(rng.choice(coords) for _ in range(2))
                ya, yb = sorted(rng.choice(coords) for _ in range(2))
                new = wr(xa, ya, xb, yb, w=rng.choice([0.0, 1.0, 2.5]))
                expected = [
                    v.seq for v in g if v.wr.rect.overlaps(new.rect)
                ]
                connect_rect(g, new, seq, hits)
                assert [g.seqs[i] for i in hits] == expected
                rects.append(new)
            for v in g:
                later = rects[v.seq + 1:]
                assert list(v.neighbors) == [
                    o for o in later if v.wr.rect.overlaps(o.rect)
                ]

    def test_multiple_older_vertices_gain_edges(self):
        g = CellGraph()
        connect_rect(g, wr(0, 0, 4, 4), 0)
        connect_rect(g, wr(1, 1, 5, 5), 1)
        hits = array("q")
        assert connect_rect(g, wr(2, 2, 3, 3, w=5.0), 2, hits) == 2
        va, vb, _ = g
        assert list(hits) == [0, 1]
        assert va.upper == 1.0 + 1.0 + 5.0
        assert vb.upper == 1.0 + 5.0

    def test_expire_upto_pops_front_only(self):
        g = CellGraph()
        for i in range(5):
            connect_rect(g, wr(i * 10, 0, i * 10 + 2, 2), i)
        assert g.expire_upto(2) == 3
        assert [v.seq for v in g] == [3, 4]
        assert g.head == 3  # a short dead prefix is not compacted yet

    def test_expire_nothing(self):
        g = CellGraph()
        connect_rect(g, wr(0, 0, 1, 1), 5)
        assert g.expire_upto(4) == 0
        assert len(g) == 1

    def test_dead_prefix_holds_no_objects(self):
        """Expired rectangles are released at once, not at the next
        compaction: nothing may keep them reachable."""
        g = CellGraph()
        for i in range(5):
            connect_rect(g, wr(i * 10, 0, i * 10 + 2, 2), i)
        g.space(0)  # materialise a space to be released too
        g.expire_upto(1)
        assert g.objs[:2] == [None, None]
        assert g.spaces[:2] == [None, None]

    def test_compaction_keeps_live_state(self):
        g = CellGraph()
        rng = random.Random(4)
        for seq in range(200):
            x, y = rng.uniform(0, 20), rng.uniform(0, 20)
            connect_rect(g, wr(x, y, x + 3, y + 3), seq)
        before = {v.seq: (v.upper, v.dirty, v.neighbors) for v in g}
        g.expire_upto(149)
        assert g.head == 0 and g.base == 150
        assert len(g.items) == 5 * 50
        for v in g:
            assert (v.upper, v.dirty, v.neighbors) == before[v.seq]
        g.check_invariants("test")

    def test_expired_vertices_not_referenced_by_survivors(self):
        """Property 3: edges point old→new, so removing the oldest
        leaves every survivor's neighbour set untouched and valid."""
        g = CellGraph()
        connect_rect(g, wr(0, 0, 4, 4), 0)
        connect_rect(g, wr(2, 2, 6, 6), 1)
        c = wr(3, 3, 7, 7)
        connect_rect(g, c, 2)
        g.expire_upto(0)
        vb, vc = g
        assert [vb.seq, vc.seq] == [1, 2]
        # vb's neighbours reference only NEWER rectangles, never seq 0
        assert vb.neighbors == (c,)

    def test_settle_moves_the_watermark(self):
        g = CellGraph()
        connect_rect(g, wr(0, 0, 4, 4), 0)
        b = wr(1, 1, 5, 5)
        connect_rect(g, b, 1)
        (va, _) = g
        assert va.fresh == (b,)
        g.settle(0, va.space)
        assert not va.dirty and va.fresh == () and g.marks[0] == 1
        c = wr(2, 2, 6, 6)
        connect_rect(g, c, 2)
        assert va.dirty and va.fresh == (c,)
        assert va.neighbors == (b, c)

    def test_max_upper(self):
        g = CellGraph()
        assert g.max_upper() == 0.0
        connect_rect(g, wr(0, 0, 4, 4, w=1.0), 0)
        connect_rect(g, wr(10, 0, 14, 4, w=3.0), 1)
        connect_rect(g, wr(11, 1, 15, 5, w=2.0), 2)
        assert g.max_upper() == 5.0  # 3 + the overlapping 2
        g.expire_upto(1)
        assert g.max_upper() == 2.0

    def test_len(self):
        g = CellGraph()
        assert len(g) == 0
        connect_rect(g, wr(0, 0, 1, 1), 0)
        assert len(g) == 1
