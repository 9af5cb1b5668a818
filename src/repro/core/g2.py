"""G2 — Graph-in-Grid index and the basic monitor (paper §4, Algorithm 1).

The basic solution keeps, per grid cell, the dynamic overlap graph of
Definition 6.  When a batch arrives the new rectangles are mapped to
their cells, edges are added from every older overlapping vertex, and
``Local-Plane-Sweep`` recomputes ``si`` for exactly the vertices whose
edge set changed — everything else is provably unchanged (Property 3),
which is the whole incrementality argument.  The answer is the maximum
``si`` over all vertices (Property 2).

Compared to the paper's pseudocode we add one pure optimisation that
does not change the operation count the paper reasons about: each cell
caches its best vertex, so the global argmax of Algorithm 1 line 7 scans
cells rather than all vertices.  ``si`` values never decrease while a
vertex is alive, so the cache only needs repair when its owner expires.
"""

from __future__ import annotations

from array import array
from typing import Dict

from repro.core.graph import CellGraph, Vertex
from repro.core.grid import CellKey, UniformGrid, default_cell_size
from repro.core.monitor import MaxRSMonitor
from repro.core.objects import dual_rect
from repro.core.planesweep import local_plane_sweep_cached
from repro.core.spaces import MaxRSResult
from repro.window.base import SlidingWindow, WindowUpdate

__all__ = ["G2Monitor"]


class _G2Cell:
    """A grid cell: its overlap graph plus the cached best vertex and
    its ``si`` weight."""

    __slots__ = ("graph", "best", "best_w")

    def __init__(self) -> None:
        self.graph = CellGraph()
        self.best: Vertex | None = None
        self.best_w = 0.0

    def rescan_best(self) -> None:
        """The first live vertex of maximal ``si`` (seqs increase with
        the index, so also the oldest)."""
        graph = self.graph
        exact = graph.exact
        best = -1
        for i in range(graph.head, len(exact)):
            if best < 0 or exact[i] > exact[best]:
                best = i
        if best < 0:
            self.best = None
        else:
            self.best = graph.vertex(best)
            self.best_w = exact[best]

    def offer_best(self, i: int) -> None:
        """Adopt the vertex at array index ``i`` if it beats the best;
        if it is the best, take its (re-swept) weight."""
        graph = self.graph
        w = graph.exact[i]
        best = self.best
        if best is None or w > self.best_w:
            self.best = graph.vertex(i)
            self.best_w = w
        elif best.pos == graph.base + i:
            self.best_w = w


class G2Monitor(MaxRSMonitor):
    """Basic incremental monitor using the G2 index (Algorithm 1)."""

    def __init__(
        self,
        rect_width: float,
        rect_height: float,
        window: SlidingWindow,
        cell_size: float | None = None,
    ) -> None:
        super().__init__(rect_width, rect_height, window)
        if cell_size is None:
            cell_size = default_cell_size(rect_width, rect_height)
        self.grid = UniformGrid(cell_size=cell_size)
        self._cells: Dict[CellKey, _G2Cell] = {}
        self._next_seq = 0
        self._expired_upto = -1

    # -- index maintenance -------------------------------------------------

    def _on_delta(self, delta: WindowUpdate) -> None:
        # Windows expire strictly in arrival order, so the expired batch
        # is exactly the next len(expired) sequence numbers.
        self._expired_upto += len(delta.expired)
        stats = self.stats
        cells = self._cells
        grid_keys = self.grid.cell_keys
        width = self.rect_width
        height = self.rect_height
        # (cell, pos) of every vertex that gained an edge, in the order
        # the edges were made; pos survives compaction
        dirty: list[tuple[_G2Cell, int]] = []
        hits = array("q")
        for obj in delta.arrived:
            seq = self._next_seq
            self._next_seq += 1
            wr = dual_rect(obj, width, height)
            for key in grid_keys(wr.rect):
                cell = cells.get(key)
                if cell is None:
                    cell = _G2Cell()
                    cells[key] = cell
                self._purge(cell)
                stats.cells_visited += 1
                graph = cell.graph
                stats.overlap_tests += len(graph)
                stats.edges_touched += graph.connect(wr, seq, hits)
                cell.offer_best(len(graph.seqs) - 1)
                base = graph.base
                dirty.extend((cell, base + i) for i in hits)
        # Recompute si exactly — once — for every vertex whose N(ri)
        # changed this batch (the dirty flag de-duplicates vertices
        # touched by several arrivals).
        for cell, pos in dirty:
            graph = cell.graph
            i = pos - graph.base
            if not graph.dirty[i]:
                continue
            graph.settle(i, local_plane_sweep_cached(graph.vertex(i)))
            stats.local_sweeps += 1
            cell.offer_best(i)

    def _purge(self, cell: _G2Cell) -> None:
        removed = cell.graph.expire_upto(self._expired_upto)
        if removed and cell.best is not None:
            if cell.best.seq <= self._expired_upto:
                cell.rescan_best()

    # -- result -------------------------------------------------------------

    def _compute_result(self, tick: int) -> MaxRSResult:
        best: _G2Cell | None = None
        self.stats.cells_scanned += len(self._cells)
        for key in list(self._cells):
            cell = self._cells[key]
            self._purge(cell)
            if not cell.graph:
                del self._cells[key]
                continue
            if cell.best is None:
                cell.rescan_best()
            w = cell.best_w
            if (
                best is None
                or w > best.best_w
                or (w == best.best_w and cell.best.seq < best.best.seq)
            ):
                best = cell
        if best is None:
            return MaxRSResult(tick=tick, window_size=len(self.window))
        return MaxRSResult.single(
            best.best.space, tick=tick, window_size=len(self.window)
        )

    # -- diagnostics ----------------------------------------------------------

    @property
    def cell_count(self) -> int:
        """Number of materialised (non-empty) grid cells."""
        return len(self._cells)

    @property
    def vertex_count(self) -> int:
        """Total vertex copies across all cells (a rectangle mapped to
        c cells contributes c)."""
        return sum(len(cell.graph) for cell in self._cells.values())
