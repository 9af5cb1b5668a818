"""The grid-vs-R-tree ablation monitor: G2's graph over an R-tree.

Same incremental idea as :class:`~repro.core.g2.G2Monitor` — edges from
older to newer overlapping rectangles, ``Local-Plane-Sweep`` only on
vertices whose neighbour set changed — but neighbour discovery and
expiry go through a dynamic R-tree instead of the grid:

* arrival: one R-tree *search* (fine) plus one R-tree *insert*;
* expiry: one R-tree *delete* each — the condense/reinsert cascade the
  paper's §4.1 sentence is about.  The grid moves a cell's head offset
  instead.

The ablation has no cells, so it keeps the explicit graph: every vertex
holds its own list of newer overlapping rectangles, as flat rows after
its own, and is swept with ``local_plane_sweep_items`` — the grid's
compiled gather-clip-sweep over that list, so both indexes pay the
same per sweep and differ only in neighbour discovery and expiry.  The answer is
tracked with a lazy max-heap over anchored spaces so no full scan is
needed per batch.  Exactness is identical to G2 (tests assert it);
only the update cost differs, which is what the ablation benchmark
measures.
"""

from __future__ import annotations

import heapq
from array import array
from typing import Dict

from repro.core.monitor import MaxRSMonitor
from repro.core.objects import WeightedRect, dual_rect
from repro.core.planesweep import local_plane_sweep_items
from repro.core.rtree import RTree
from repro.core.spaces import MaxRSResult, Region
from repro.window.base import SlidingWindow, WindowUpdate

__all__ = ["RTreeMonitor"]


class _Vertex:
    """One rectangle of the R-tree graph with its out-edges and ``si``."""

    __slots__ = ("wr", "seq", "items", "space", "dirty")

    def __init__(self, wr: WeightedRect, seq: int, row: tuple) -> None:
        self.wr = wr
        self.seq = seq
        # its own row, then one per newer overlapping rectangle; never
        # an expired one (Property 3)
        self.items = array("d", row)
        self.space = Region(rect=wr.rect, weight=wr.weight, anchor_oid=wr.oid)
        self.dirty = False


class RTreeMonitor(MaxRSMonitor):
    """Incremental exact MaxRS monitor backed by an R-tree (ablation)."""

    def __init__(
        self,
        rect_width: float,
        rect_height: float,
        window: SlidingWindow,
        max_entries: int = 8,
    ) -> None:
        super().__init__(rect_width, rect_height, window)
        self._tree = RTree(max_entries=max_entries)
        self._vertices: Dict[int, _Vertex] = {}  # seq -> vertex
        self._next_seq = 0
        self._expired_upto = -1
        # lazy max-heap of (-weight, seq); stale entries skipped on read
        self._heap: list[tuple[float, int]] = []

    def _on_delta(self, delta: WindowUpdate) -> None:
        # expirations: R-tree deletes (the cost under ablation)
        for _ in delta.expired:
            self._expired_upto += 1
            vertex = self._vertices.pop(self._expired_upto, None)
            if vertex is not None:
                self._tree.delete(vertex.seq, vertex.wr.rect)
        dirty: list[_Vertex] = []
        metrics = self.metrics
        stats = self.stats
        vertices = self._vertices
        width = self.rect_width
        height = self.rect_height
        nodes_before = self._tree.nodes_expanded
        for obj in delta.arrived:
            seq = self._next_seq
            self._next_seq += 1
            wr = dual_rect(obj, width, height)
            rect = wr.rect
            row = (rect.x1, rect.y1, rect.x2, rect.y2, wr.weight)
            # neighbour discovery via overlap search (edges old → new)
            for key in self._tree.search_overlap(rect):
                older = vertices[key]  # type: ignore[index]
                older.items.extend(row)
                if not older.dirty:
                    older.dirty = True
                    dirty.append(older)
                stats.overlap_tests += 1
                metrics.inc("overlap_tests")
                metrics.inc("edges_touched")
            vertex = _Vertex(wr, seq, row)
            vertices[seq] = vertex
            self._tree.insert(seq, wr.rect)
            heapq.heappush(self._heap, (-vertex.space.weight, seq))
        metrics.inc(
            "nodes_expanded", self._tree.nodes_expanded - nodes_before
        )
        for vertex in dirty:
            vertex.dirty = False
            vertex.space = local_plane_sweep_items(vertex.wr, vertex.items)
            self.stats.local_sweeps += 1
            metrics.inc("local_sweeps")
            metrics.inc("objects_swept", len(vertex.items) // 5)
            heapq.heappush(self._heap, (-vertex.space.weight, vertex.seq))
        # compact the lazy heap once stale entries dominate, keeping
        # memory proportional to the live vertex count on long runs
        if len(self._heap) > 4 * max(16, len(self._vertices)):
            self._heap = [
                (-v.space.weight, seq) for seq, v in self._vertices.items()
            ]
            heapq.heapify(self._heap)

    def _compute_result(self, tick: int) -> MaxRSResult:
        heap = self._heap
        while heap:
            neg_weight, seq = heap[0]
            vertex = self._vertices.get(seq)
            if vertex is None or vertex.space.weight != -neg_weight:
                heapq.heappop(heap)  # expired or superseded entry
                continue
            return MaxRSResult.single(
                vertex.space, tick=tick, window_size=len(self.window)
            )
        return MaxRSResult(tick=tick, window_size=len(self.window))

    # -- diagnostics -----------------------------------------------------------

    @property
    def tree_size(self) -> int:
        return len(self._tree)

    def check_invariants(self) -> None:
        """Structural validation: tree matches the vertex table."""
        self._tree.check_invariants()
        if len(self._tree) != len(self._vertices):
            raise AssertionError(
                f"tree size {len(self._tree)} != vertices {len(self._vertices)}"
            )
