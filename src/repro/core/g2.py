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
    """A grid cell: its overlap graph plus the cached best vertex."""

    __slots__ = ("graph", "best")

    def __init__(self) -> None:
        self.graph = CellGraph()
        self.best: Vertex | None = None

    def rescan_best(self) -> None:
        best: Vertex | None = None
        for v in self.graph.iter_vertices():
            if (
                best is None
                or v.space.weight > best.space.weight
                or (v.space.weight == best.space.weight and v.seq < best.seq)
            ):
                best = v
        self.best = best

    def offer_best(self, v: Vertex) -> None:
        if self.best is None or v.space.weight > self.best.space.weight:
            self.best = v


class G2Monitor(MaxRSMonitor):
    """Basic incremental monitor using the G2 index (Algorithm 1)."""

    index_backend = "uniform-grid"

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
        metrics = self.metrics
        stats = self.stats
        cells = self._cells
        grid_keys = self.grid.cell_keys
        width = self.rect_width
        height = self.rect_height
        dirty: list[tuple[_G2Cell, Vertex]] = []
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
                metrics.inc("cells_visited")
                stats.overlap_tests += len(cell.graph)
                metrics.inc("overlap_tests", len(cell.graph))
                vertex, touched = cell.graph.connect(wr, seq)
                metrics.inc("edges_touched", len(touched))
                cell.offer_best(vertex)
                dirty.extend((cell, v) for v in touched)
        # Recompute si exactly — once — for every vertex whose N(ri)
        # changed this batch (the dirty flag de-duplicates vertices
        # touched by several arrivals).
        for cell, v in dirty:
            if not v.dirty:
                continue
            v.dirty = False
            v.space = local_plane_sweep_cached(v)
            v.upper = v.space.weight
            stats.local_sweeps += 1
            metrics.inc("local_sweeps")
            cell.offer_best(v)

    def _purge(self, cell: _G2Cell) -> None:
        removed = cell.graph.expire_upto(self._expired_upto)
        if removed and cell.best is not None:
            if cell.best.seq <= self._expired_upto:
                cell.rescan_best()

    # -- result -------------------------------------------------------------

    def _compute_result(self, tick: int) -> MaxRSResult:
        best: Vertex | None = None
        for key in list(self._cells):
            cell = self._cells[key]
            self.metrics.inc("cells_scanned")
            self._purge(cell)
            if not cell.graph:
                del self._cells[key]
                continue
            if cell.best is None:
                cell.rescan_best()
            v = cell.best
            assert v is not None
            if (
                best is None
                or v.space.weight > best.space.weight
                or (v.space.weight == best.space.weight and v.seq < best.seq)
            ):
                best = v
        if best is None:
            return MaxRSResult(tick=tick, window_size=len(self.window))
        return MaxRSResult.single(
            best.space, tick=tick, window_size=len(self.window)
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
