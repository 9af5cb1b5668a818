"""Unit tests for the per-cell dynamic overlap graph."""

from __future__ import annotations

import random

from repro.core.geometry import Rect
from repro.core.graph import CellGraph, Vertex
from repro.core.objects import SpatialObject, WeightedRect


def wr(x1, y1, x2, y2, w=1.0) -> WeightedRect:
    obj = SpatialObject(x=(x1 + x2) / 2, y=(y1 + y2) / 2, weight=w)
    return WeightedRect(rect=Rect(x1, y1, x2, y2), weight=w, obj=obj)


class TestVertex:
    def test_initial_state(self):
        rect = wr(0, 0, 4, 4, w=2.0)
        v = Vertex(rect, seq=7)
        assert v.seq == 7
        assert v.neighbors == []
        assert v.space.weight == 2.0
        assert v.space.rect == rect.rect
        assert v.space.anchor_oid == rect.oid
        assert v.upper == 2.0
        assert not v.dirty
        assert v.swept_degree == 0


class TestCellGraph:
    def test_connect_builds_edges_old_to_new(self):
        g = CellGraph()
        a = wr(0, 0, 4, 4, w=1.0)
        b = wr(2, 2, 6, 6, w=2.0)
        va, _ = g.connect(a, 0)
        vb, touched = g.connect(b, 1)
        # edge held by the OLDER vertex (Definition 5)
        assert touched == [va]
        assert va.neighbors == [b]
        assert vb.neighbors == []
        assert va.dirty
        assert va.upper == 3.0  # Equation (3)

    def test_connect_skips_non_overlapping(self):
        g = CellGraph()
        g.connect(wr(0, 0, 2, 2), 0)
        _, touched = g.connect(wr(10, 10, 12, 12), 1)
        assert touched == []

    def test_connect_touching_is_no_edge(self):
        g = CellGraph()
        va, _ = g.connect(wr(0, 0, 2, 2), 0)
        g.connect(wr(2, 0, 4, 2), 1)
        assert va.neighbors == []

    def test_connect_edges_match_rect_overlaps(self):
        """Every edge, and every missing one, is what ``Rect.overlaps``
        says: shared boundaries, degenerate rectangles and signed zeros
        included."""
        rng = random.Random(11)
        coords = [-1.0, -0.0, 0.0, 0.5, 1.0, 2.0]
        for _ in range(200):
            g = CellGraph()
            rects = []
            for seq in range(8):
                xa, xb = sorted(rng.choice(coords) for _ in range(2))
                ya, yb = sorted(rng.choice(coords) for _ in range(2))
                new = wr(xa, ya, xb, yb, w=rng.choice([0.0, 1.0, 2.5]))
                expected = [
                    v for v in g.vertices if v.wr.rect.overlaps(new.rect)
                ]
                _, touched = g.connect(new, seq)
                assert touched == expected
                rects.append(new)
            for v in g.vertices:
                later = rects[v.seq + 1:]
                assert v.neighbors == [
                    o for o in later if v.wr.rect.overlaps(o.rect)
                ]

    def test_multiple_older_vertices_gain_edges(self):
        g = CellGraph()
        va, _ = g.connect(wr(0, 0, 4, 4), 0)
        vb, _ = g.connect(wr(1, 1, 5, 5), 1)
        _, touched = g.connect(wr(2, 2, 3, 3, w=5.0), 2)
        assert set(id(v) for v in touched) == {id(va), id(vb)}
        assert va.upper == 1.0 + 1.0 + 5.0
        assert vb.upper == 1.0 + 5.0

    def test_expire_upto_pops_front_only(self):
        g = CellGraph()
        for i in range(5):
            g.connect(wr(i * 10, 0, i * 10 + 2, 2), i)
        removed = g.expire_upto(2)
        assert [v.seq for v in removed] == [0, 1, 2]
        assert [v.seq for v in g.iter_vertices()] == [3, 4]

    def test_expire_nothing(self):
        g = CellGraph()
        g.connect(wr(0, 0, 1, 1), 5)
        assert g.expire_upto(4) == []
        assert len(g) == 1

    def test_expired_vertices_not_referenced_by_survivors(self):
        """Property 3: edges point old→new, so removing the oldest
        leaves every survivor's neighbour list untouched and valid."""
        g = CellGraph()
        g.connect(wr(0, 0, 4, 4), 0)
        vb, _ = g.connect(wr(2, 2, 6, 6), 1)
        vc, _ = g.connect(wr(3, 3, 7, 7), 2)
        g.expire_upto(0)
        survivors = list(g.iter_vertices())
        assert [v.seq for v in survivors] == [1, 2]
        # vb's neighbours reference only NEWER rectangles, never seq 0
        assert all(nb.oid == vc.wr.oid for nb in vb.neighbors)

    def test_append_raw(self):
        g = CellGraph()
        v = Vertex(wr(0, 0, 1, 1), seq=3)
        g.append_raw(v)
        assert list(g.iter_vertices()) == [v]

    def test_len(self):
        g = CellGraph()
        assert len(g) == 0
        g.connect(wr(0, 0, 1, 1), 0)
        assert len(g) == 1
