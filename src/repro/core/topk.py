"""Continuous top-k MaxRS monitoring (paper §6.2, Algorithm 6).

The top-k monitor is the branch-and-bound monitor with the pruning
threshold generalised from ``s*.w`` to the *k-th largest* known anchored
space weight.  Spaces are anchored at vertices (Property 1 makes
per-vertex spaces distinct); the answer set ``S*`` is the ``k`` best
anchored spaces, de-duplicated by anchor object across grid cells.

Bookkeeping beyond Algorithm 2 (see DESIGN.md §1 "Top-k semantics"):

* every cell keeps ``top`` — its k best vertices by exact space weight —
  rebuilt whenever the cell is exactly recomputed or loses a listed
  vertex to expiry;
* the global threshold ``ρ`` is the k-th best weight over all cell
  lists (a valid lower bound of the true k-th value, which is all
  pruning soundness requires);
* the branch-and-bound pass visits the cells currently owning ``S*``
  first (Algorithm 6 line 2), then the rest in decreasing ``c.w``
  order — read from aG2's persistent candidate heap — raising ``ρ`` as
  exact values improve.

Correctness argument: after a pass, every alive vertex either carries
its exact ``si`` or was pruned while its bound was ≤ the then-current
ρ ≤ final ρ; hence any vertex with true ``si`` above the final k-th
recorded weight is exact and ranked, so the reported k weights are the
true top-k (ties broken arbitrarily, as Definition 4 allows).
"""

from __future__ import annotations

import heapq
from typing import Dict

from repro.core.ag2 import AG2Cell, AG2Monitor
from repro.core.graph import Vertex
from repro.core.grid import CellKey
from repro.core.spaces import MaxRSResult, Region
from repro.errors import InvalidParameterError
from repro.window.base import SlidingWindow, WindowUpdate

__all__ = ["TopKAG2Monitor"]

_NEG_INF = float("-inf")

# candidate pool entry: anchor oid -> (its exact space weight, the
# vertex, key of the cell it lives in); the weight is refreshed whenever
# the vertex is re-swept, so it always equals vertex.space.weight
_Candidates = Dict[int, tuple[float, Vertex, CellKey]]


class _TopKCell(AG2Cell):
    """aG2 cell extended with its k best vertices (exact-space order),
    each as ``(weight, oid, vertex)``.  Its vertices are swept only by
    the exact pass that ends in :meth:`rebuild_top`, so the weights
    stay current."""

    __slots__ = ("top",)

    def __init__(self) -> None:
        super().__init__()
        self.top: list[tuple[float, int, Vertex]] = []

    def rebuild_top(self, k: int) -> None:
        graph = self.graph
        exact = graph.exact
        objs = graph.objs
        best = heapq.nlargest(
            k, range(graph.head, len(graph.seqs)), key=exact.__getitem__
        )
        self.top = [(exact[i], objs[i].oid, graph.vertex(i)) for i in best]


class TopKAG2Monitor(AG2Monitor):
    """Branch-and-bound continuous top-k MaxRS monitor (Algorithm 6).

    Anchor objects must carry unique ``oid`` values (the default
    auto-assigned identifiers do); the answer is de-duplicated by
    anchor across grid cells.
    """

    def __init__(
        self,
        rect_width: float,
        rect_height: float,
        window: SlidingWindow,
        k: int,
        cell_size: float | None = None,
    ) -> None:
        if k <= 0:
            raise InvalidParameterError(f"k must be positive, got {k}")
        super().__init__(rect_width, rect_height, window, cell_size=cell_size)
        self.k = k
        # final ranked answer of the last pass, best first
        self._answer: list[Vertex] = []

    # -- cell plumbing overrides ------------------------------------------------

    def _make_cell(self) -> AG2Cell:
        return _TopKCell()

    def _cell_purged(self, cell: AG2Cell) -> None:
        assert isinstance(cell, _TopKCell)
        alive = [e for e in cell.top if e[2].seq > self._expired_upto]
        if len(alive) != len(cell.top):
            # a listed vertex expired: the list may now omit one of the
            # cell's k best, so rebuild from the graph
            cell.rebuild_top(self.k)

    # -- Algorithm 6 -----------------------------------------------------------------

    def _on_delta(self, delta: WindowUpdate) -> None:
        self._expired_upto += len(delta.expired)
        self._map_arrivals(delta)
        self._purge_all()
        self._star = None  # top-1 bookkeeping unused in top-k mode
        self._star_cell = None
        cells = self._cells
        if not cells:
            self._answer = []
            self._order.clear()
            return
        candidates = self._merge_candidates()
        rho = self._kth_weight(candidates)
        # line 2: refresh the cells currently owning S* members first so
        # the threshold is as honest as possible before pruning starts
        priority = {
            key
            for _w, _v, key in heapq.nlargest(
                self.k, candidates.values(), key=lambda entry: entry[0]
            )
        }
        if not priority:
            priority = {self._top_bound_cell()}
        for key in priority:
            self._visit(key, cells[key])
            rho = self._exact_topk(key, rho, candidates)
        # lines 7-8: branch-and-bound over the remaining cells in
        # decreasing c.w; every cell not exactly computed is pruned
        exact = 0
        for key, cell in self._candidates():
            if not cell.cw > rho:
                break
            self._visit(key, cell)
            if cell.cw > rho:
                rho = self._exact_topk(key, rho, candidates)
                exact += 1
        self.stats.cells_pruned += len(cells) - len(priority) - exact
        self._answer = self._rank(candidates)
        self._settle_order()

    # -- candidate management ----------------------------------------------------------

    def _merge_candidates(self) -> _Candidates:
        """All cell-list vertices, de-duplicated by anchor object
        (keeping the copy with the larger exact space)."""
        merged: _Candidates = {}
        for key, cell in self._cells.items():
            assert isinstance(cell, _TopKCell)
            for w, oid, v in cell.top:
                held = merged.get(oid)
                if held is None or w > held[0]:
                    merged[oid] = (w, v, key)
        return merged

    def _kth_weight(self, candidates: _Candidates) -> float:
        if len(candidates) < self.k:
            return _NEG_INF
        return heapq.nlargest(
            self.k, (w for w, _v, _key in candidates.values())
        )[-1]

    def _rank(self, candidates: _Candidates) -> list[Vertex]:
        return [
            v
            for _w, v, _key in heapq.nlargest(
                self.k,
                candidates.values(),
                key=lambda entry: (entry[0], -entry[1].seq),
            )
        ]

    # -- exact recomputation ---------------------------------------------------

    def _exact_topk(
        self, key: CellKey, rho: float, candidates: _Candidates
    ) -> float:
        """Algorithm 4 generalised to the k-th-weight threshold: sweep
        every vertex whose bound beats ρ, fold results into the global
        candidate pool, rebuild the cell list, and return the raised ρ."""
        cell = self._cells[key]
        assert isinstance(cell, _TopKCell)
        graph = cell.graph
        n = len(graph.seqs)
        dirty = graph.dirty
        exact = graph.exact
        i = graph.head
        while True:
            j = graph.next_above(i, 1.0, rho)
            self.stats.vertices_pruned += j - i
            if j == n:
                break
            i = j + 1
            # dirty ⟺ edges added since the last exact sweep
            if dirty[j]:
                self._sweep_vertex(graph, j)
            oid = graph.objs[j].oid
            held = candidates.get(oid)
            if held is None or exact[j] > held[0]:
                candidates[oid] = (exact[j], graph.vertex(j), key)
            elif held[1].graph is graph and held[1].pos == graph.base + j:
                # the held vertex itself was re-swept: keep its weight
                candidates[oid] = (exact[j], held[1], key)
        # the largest bound, or 0.0 when none is positive
        cw = graph.max_upper()
        cell.cw = cw if cw > 0.0 else 0.0
        cell.rebuild_top(self.k)
        return max(rho, self._kth_weight(candidates))

    # -- result ----------------------------------------------------------------

    def _compute_result(self, tick: int) -> MaxRSResult:
        regions: list[Region] = [v.space for v in self._answer]
        return MaxRSResult.ranked(
            regions, tick=tick, window_size=len(self.window)
        )
