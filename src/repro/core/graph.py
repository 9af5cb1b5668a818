"""Per-cell dynamic overlap graph (paper Definitions 5 and 6).

Each grid cell maintains a graph over the dual rectangles mapped to it:
vertices are rectangles, and a *directed* edge runs from the older to
the newer of every overlapping pair.  Because edges are held by the
older endpoint, a vertex's neighbour set ``N(ri)`` only ever contains
rectangles newer than ``ri`` — which is exactly why expiration needs no
neighbour maintenance (Property 3): when a vertex dies, nothing else
references it.

The same :class:`Vertex` record serves both indexes.  ``space`` is the
paper's ``si`` — the best space anchored at the vertex, always a valid
space with exactly the recorded weight; ``upper`` is the aG2 bound
``s̄i`` with ``space.weight ≤ true si ≤ upper`` (Property 4's vertex
half).  For G2, which keeps ``si`` exact at all times, ``upper`` simply
mirrors ``space.weight``.
"""

from __future__ import annotations

from array import array
from collections import deque
from typing import Deque, Iterable

from repro.core.objects import WeightedRect
from repro.core.spaces import Region

__all__ = ["Vertex", "CellGraph"]


class Vertex:
    """A dual rectangle living in one cell's graph."""

    __slots__ = (
        "wr", "seq", "neighbors", "space", "upper", "dirty", "swept_degree",
        "clip_items", "clip_upto",
    )

    def __init__(self, wr: WeightedRect, seq: int) -> None:
        self.wr = wr
        self.seq = seq
        # newer overlapping rectangles (out-edges); never contains
        # expired entries because neighbours are strictly newer
        self.neighbors: list[WeightedRect] = []
        # si: best space anchored here, initially the rectangle itself
        self.space = Region(rect=wr.rect, weight=wr.weight, anchor_oid=wr.oid)
        # s̄i: upper bound on the true si (Equation 3 maintenance)
        self.upper = wr.weight
        # set when edges were added since `space` was last recomputed
        self.dirty = False
        # len(neighbors) when `space` was last recomputed exactly; the
        # tail neighbors[swept_degree:] is Algorithm 5's R(ri)
        self.swept_degree = 0
        # local_plane_sweep_cached state: a flat array('d') of
        # (x1, y1, x2, y2, weight) per item, the anchor then the clips
        # of neighbors[:clip_upto], valid because neighbour lists are
        # append-only while the vertex is alive.  None until the
        # vertex is first swept, so pruned vertices pay nothing.
        self.clip_items: array | None = None
        self.clip_upto = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Vertex(seq={self.seq}, oid={self.wr.oid}, "
            f"deg={len(self.neighbors)}, si={self.space.weight:.3f}, "
            f"upper={self.upper:.3f})"
        )


class CellGraph:
    """The dynamic graph of one grid cell, in arrival order.

    Used directly by G2 (vertices only); aG2 wraps it with the pending
    set ``R`` and the cell bound ``c.w`` (see ``repro.core.ag2``).
    """

    __slots__ = ("vertices",)

    def __init__(self) -> None:
        self.vertices: Deque[Vertex] = deque()

    def __len__(self) -> int:
        return len(self.vertices)

    def connect(self, wr: WeightedRect, seq: int) -> tuple[Vertex, list[Vertex]]:
        """Insert a new rectangle, adding edges from every older
        overlapping vertex (Definition 5).

        Returns the new vertex and the list of older vertices that
        gained an edge (whose ``si`` may now be stale).  The caller
        counts the ``len(self.vertices)`` pairwise overlap tests.
        """
        rect = wr.rect
        x1 = rect.x1
        y1 = rect.y1
        x2 = rect.x2
        y2 = rect.y2
        weight = wr.weight
        touched: list[Vertex] = []
        # Rect.overlaps, inlined: this loop is aG2's and G2's hottest
        # Python.  A degenerate rectangle overlaps nothing.
        if x1 != x2 and y1 != y2:
            for v in self.vertices:
                r = v.wr.rect
                if (
                    r.x1 < x2
                    and x1 < r.x2
                    and r.y1 < y2
                    and y1 < r.y2
                    and r.x1 != r.x2
                    and r.y1 != r.y2
                ):
                    v.neighbors.append(wr)
                    v.upper += weight
                    v.dirty = True
                    touched.append(v)
        vertex = Vertex(wr, seq)
        self.vertices.append(vertex)
        return vertex, touched

    def append_raw(self, vertex: Vertex) -> None:
        """Append an already-wired vertex (aG2's OverlapComputation builds
        edges itself to also maintain bounds)."""
        self.vertices.append(vertex)

    def expire_upto(self, seq: int) -> list[Vertex]:
        """Remove and return all vertices with ``seq`` ≤ the given
        sequence number.  Vertices expire strictly in arrival order, so
        this is a pop-from-the-front loop (Property 3: no other vertex
        needs maintenance)."""
        removed: list[Vertex] = []
        vertices = self.vertices
        while vertices and vertices[0].seq <= seq:
            removed.append(vertices.popleft())
        return removed

    def iter_vertices(self) -> Iterable[Vertex]:
        return iter(self.vertices)
