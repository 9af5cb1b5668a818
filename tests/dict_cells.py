"""The dict-per-cell aG2 and top-k monitors that the flat cell table
(``repro.core.cells``) replaced, kept as test oracles.

Each live cell is a :class:`DictCell` in a ``Dict[CellKey, DictCell]``
with its pending set as an ``array('q')`` of seqs, its bound ``cw``, its
bound at the last visit ``vb``, a stale mark and creation rank; the
candidate order is a lazy heap of ``(-c.w, rank, key)`` tuples, where a
stale cell that reaches the top is re-keyed at its live bound (``vb``
plus its pending weights, added in row order), as the flat table's
``maxrs_top`` does.  Algorithm 4 takes the same two paths as the production
monitor (one sweep of a dense cell, or a local sweep per surviving
vertex), by the same rule.  Answers (to the bit) and every
``MonitorStats`` field must equal the production monitors' on every
tick.
"""

from __future__ import annotations

import heapq
from array import array
from bisect import bisect_right
from heapq import heapify, heappop, heappush, heapreplace
from typing import Callable, Dict, Iterator

from repro.core.ag2 import _CELL_SWEEP_MIN
from repro.core.graph import ArrivalTable, CellGraph, Vertex
from repro.core.grid import CellKey, UniformGrid, default_cell_size
from repro.core.monitor import MaxRSMonitor
from repro.core.planesweep import local_plane_sweep_cached
from repro.core.spaces import MaxRSResult, Region
from repro.errors import InvalidParameterError
from repro.window.base import SlidingWindow, WindowUpdate

_NEG_INF = float("-inf")

Tightener = Callable[[Vertex, float], float]

_Candidates = Dict[int, tuple[float, Vertex, CellKey]]


class DictCell:
    """One aG2 cell: graph + pending set ``R`` + cell bound ``c.w``."""

    __slots__ = ("graph", "pending", "cw", "vb", "stale", "rank")

    def __init__(self) -> None:
        # allocated by the cell's first _overlap_computation: in a
        # sparse window most mapped cells are pruned and never visited
        self.graph: CellGraph | None = None
        # seqs of the rectangles mapped here but not yet overlap-checked,
        # in arrival order (rows of the monitor's arrival table)
        self.pending = array("q")
        self.cw = 0.0
        # c.w at the last visit; c.w is vb plus the pending weights
        # unless stale (an expired pending row's weight still counted)
        self.vb = 0.0
        self.stale = False
        # creation order within the owning monitor; mirrors the cell
        # dict's insertion order so heap-based candidate ordering
        # breaks c.w ties exactly like a stable sort over the dict did,
        # and marks a dropped cell's heap entries dead if its key returns
        self.rank = 0

    @property
    def is_empty(self) -> bool:
        return not self.graph and not self.pending

    def max_upper(self) -> float:
        return 0.0 if self.graph is None else self.graph.max_upper()


class DictAG2Monitor(MaxRSMonitor):
    """Branch-and-bound continuous MaxRS monitor over aG2 (Algorithm 2).

    Args:
        epsilon: User-tolerated error rate ``ε ∈ [0, 1)``.  ``0`` gives
            the exact monitor; ``ε > 0`` gives the §6.1 approximate
            monitor with the guarantee ``s.w ≥ (1-ε)·s*.w``.
        tighten: Optional Algorithm 5 tightener (see
            ``repro.core.upperbound``); ablation only.
        cell_size: Grid resolution; defaults to twice the query size.
    """

    def __init__(
        self,
        rect_width: float,
        rect_height: float,
        window: SlidingWindow,
        cell_size: float | None = None,
        epsilon: float = 0.0,
        tighten: Tightener | None = None,
        visit_order: str = "bound",
    ) -> None:
        super().__init__(rect_width, rect_height, window)
        if not (0.0 <= epsilon < 1.0):
            raise InvalidParameterError(
                f"epsilon must be in [0, 1), got {epsilon}"
            )
        if visit_order not in ("bound", "arbitrary"):
            raise InvalidParameterError(
                f"visit_order must be 'bound' or 'arbitrary', got {visit_order!r}"
            )
        if cell_size is None:
            cell_size = default_cell_size(rect_width, rect_height)
        self.grid = UniformGrid(cell_size=cell_size)
        self.epsilon = float(epsilon)
        self._tighten = tighten
        # "bound": visit candidate cells in decreasing c.w so the first
        # Rule-1 failure prunes the remainder (our default); "arbitrary":
        # the paper's literal reading — any order, every cell tested.
        self.visit_order = visit_order
        self._cells: Dict[CellKey, DictCell] = {}
        self._next_cell_rank = 0
        self._expired_upto = -1
        # every live arrival's rectangle and cell cover, by seq; purging
        # reads the expired rows' covers and touches only those cells
        # instead of scanning the whole cell dict per batch
        self._table = ArrivalTable()
        # the monitored answer: the vertex whose exact space we report,
        # and that space's weight (kept equal to star.space.weight)
        self._star: Vertex | None = None
        self._star_w = _NEG_INF
        self._star_cell: CellKey | None = None
        # the persistent candidate order: a lazy min-heap of
        # (-c.w, rank, key).  An entry is live while its cell exists
        # with that rank and c.w and was not visited this batch; every
        # cell has a live entry between batches (_settle_order)
        self._order: list[tuple[float, int, CellKey]] = []
        self._visited: set[CellKey] = set()

    # -- Algorithm 2 ---------------------------------------------------------

    def _on_delta(self, delta: WindowUpdate) -> None:
        self._expired_upto += len(delta.expired)
        self._map_arrivals(delta)
        self._purge_all()
        cells = self._cells
        if not cells:
            self._clear_star()
            self._order.clear()
            return
        # lines 6-10: refresh (or re-seed) the monitored answer first so
        # the pruning threshold is as large as possible
        start_key = self._pick_start_cell()
        self._visit(start_key, cells[start_key])
        self._exact_weight_computation(start_key)
        # lines 11-15: branch-and-bound over the remaining cells; in
        # "bound" order the first Rule-1 failure prunes the rest, in
        # "arbitrary" order every cell is tested individually.  Every
        # cell not exactly computed is pruned.
        exact = 0
        if self.visit_order == "bound":
            for key, cell in self._candidates():
                if not self._may_beat(cell.cw):
                    break
                self._visit(key, cell)
                if self._may_beat(cell.cw):
                    self._exact_weight_computation(key)
                    exact += 1
        else:
            for key in [key for key in cells if key != start_key]:
                cell = cells[key]
                if not self._may_beat(cell.cw):
                    continue
                self._visit(key, cell)
                if self._may_beat(cell.cw):
                    self._exact_weight_computation(key)
                    exact += 1
        self.stats.cells_pruned += len(cells) - 1 - exact
        self._settle_order()

    # -- candidate order -------------------------------------------------------

    def _visit(self, key: CellKey, cell: DictCell) -> None:
        """Overlap-compute a candidate cell; its heap entries are dead
        until :meth:`_settle_order` pushes its new bound."""
        self._visited.add(key)
        self._overlap_computation(cell)

    def _live(self, entry: tuple[float, int, CellKey]) -> bool:
        neg_cw, rank, key = entry
        cell = self._cells.get(key)
        return (
            cell is not None
            and cell.rank == rank
            and cell.cw == -neg_cw
            and key not in self._visited
        )

    def _live_bound(self, cell: DictCell) -> float:
        """The cell's last-visit bound plus its pending weights, in row
        order."""
        rows = self._table.rows
        base = self._table.base
        s = cell.vb
        for seq in cell.pending:
            s += rows[5 * (seq - base) + 4]
        return s

    def _rekey(self, cell: DictCell) -> bool:
        """Re-key a stale cell at its live bound; True when that is
        lower than its ``c.w``."""
        s = self._live_bound(cell)
        lower = s < cell.cw
        cell.cw = s
        cell.stale = False
        return lower

    def _candidates(self) -> Iterator[tuple[CellKey, DictCell]]:
        """Unvisited cells in decreasing ``(live bound, -rank)`` order —
        the order a stable sort over the cell dict by live bound gives.

        Yields the top live entry without popping it; the caller either
        visits the cell (killing the entry, which the next step pops) or
        stops, leaving the entry in place.  Dead entries are dropped; a
        stale cell on top is re-keyed, its entry replaced when the
        bound drops.
        """
        order = self._order
        cells = self._cells
        while order:
            entry = order[0]
            if not self._live(entry):
                heappop(order)
                continue
            cell = cells[entry[2]]
            if cell.stale and self._rekey(cell):
                heapreplace(order, (-cell.cw, entry[1], entry[2]))
                continue
            yield entry[2], cell

    def _settle_order(self) -> None:
        """Push the bound of every cell visited this batch, then rebuild
        the heap from the cell dict once dead entries outnumber the
        live cells, so it holds at most ``2 × len(cells)`` entries."""
        order = self._order
        cells = self._cells
        for key in self._visited:
            cell = cells[key]
            cell.vb = cell.cw
            heappush(order, (-cell.cw, cell.rank, key))
        self._visited.clear()
        if len(order) > 2 * len(cells):
            order[:] = [(-cell.cw, cell.rank, key) for key, cell in cells.items()]
            heapify(order)

    # -- batch plumbing --------------------------------------------------------

    def _map_arrivals(self, delta: WindowUpdate) -> None:
        """Lines 1-5: route new rectangles to their cells, growing each
        cell bound by the arriving weight (Equation 5)."""
        table = self._table
        start = table.route(
            delta.arrived, self.rect_width, self.rect_height, self.grid
        )
        cells = self._cells
        rows = table.rows
        base = table.base
        touched: Dict[CellKey, DictCell] = {}
        for row, key in table.cells(start, len(table.objs)):
            cell = cells.get(key)
            if cell is None:
                cell = self._make_cell()
                cell.rank = self._next_cell_rank
                self._next_cell_rank += 1
                cells[key] = cell
            cell.pending.append(base + row)
            cell.cw += rows[5 * row + 4]
            touched[key] = cell
        order = self._order
        for key, cell in touched.items():
            heappush(order, (-cell.cw, cell.rank, key))

    def _make_cell(self) -> DictCell:
        """Cell factory; the top-k monitor overrides it to attach the
        per-cell candidate list."""
        return DictCell()

    def _purge_all(self) -> None:
        """Expire stale vertices/pending entries from the cells that
        hold them.

        The arrival table keeps every live row's cell cover, so the
        cells owning expired entries are exactly those covered by the
        expired rows — O(expired × cells-per-rect) per batch instead of
        a scan over every materialised cell.  Purging only removes
        weight, so a cell that loses pending rows keeps a valid upper
        bound and is marked stale; empty cells are dropped.
        """
        expired_upto = self._expired_upto
        if self._star is not None and self._star.seq <= expired_upto:
            self._clear_star()
        table = self._table
        head = table.head
        stop = expired_upto + 1 - table.base
        if stop <= head:
            return
        cells = self._cells
        for _row, key in table.cells(head, stop):
            cell = cells.get(key)
            if cell is None:
                continue
            # an expired row's cell: drop every expired entry (later
            # rows covering it find nothing left to drop)
            pending = cell.pending
            if pending and pending[0] <= expired_upto:
                del pending[:bisect_right(pending, expired_upto)]
                cell.stale = True
            graph = cell.graph
            removed = 0 if graph is None else graph.expire_upto(expired_upto)
            if not pending and not graph:
                del cells[key]
            elif removed:
                self._cell_purged(cell)
        table.expire_upto(expired_upto)

    def _cell_purged(self, cell: DictCell) -> None:
        """Hook invoked after vertices expired from a surviving cell;
        the top-k monitor repairs its per-cell candidate list here."""

    def _clear_star(self) -> None:
        self._star = None
        self._star_w = _NEG_INF
        self._star_cell = None

    def _pick_start_cell(self) -> CellKey:
        """The cell holding ``s*``; if it expired, the Equation (6)
        heuristic: the cell with the largest upper bound."""
        if self._star_cell is not None and self._star_cell in self._cells:
            return self._star_cell
        return self._top_bound_cell()

    def _top_bound_cell(self) -> CellKey:
        """The live cell with the largest live bound; ties go to the
        largest key, as ``max((live bound, key))`` over the cell dict
        would pick.

        Entries tied with the root's bound form a subtree under the
        root, so only they are read (a stale one counts only if its live
        bound is the root's).  Requires a live cell.
        """
        top_key, _cell = next(self._candidates())
        order = self._order
        neg_cw = order[0][0]
        stack = [1, 2]
        while stack:
            i = stack.pop()
            if i < len(order) and order[i][0] == neg_cw:
                key = order[i][2]
                cell = self._cells.get(key)
                if (
                    key > top_key
                    and self._live(order[i])
                    and (not cell.stale or self._live_bound(cell) == -neg_cw)
                ):
                    top_key = key
                stack += (2 * i + 1, 2 * i + 2)
        return top_key

    def _may_beat(self, bound: float) -> bool:
        """Pruning Rule 1 (ε = 0) / Rule 3 (ε > 0): can a cell with this
        bound contain an answer we are obliged to adopt?"""
        if self._star is None:
            return True
        return (1.0 - self.epsilon) * bound > self._star_w

    # -- Algorithm 3 -------------------------------------------------------------

    def _overlap_computation(self, cell: DictCell) -> None:
        """Move pending rectangles into the graph, adding edges from
        older overlapping vertices (Equation 3 grows their bounds), then
        re-derive the cell bound from all vertex bounds (Equation 4)."""
        stats = self.stats
        stats.cells_visited += 1
        graph = cell.graph
        if graph is None:
            graph = cell.graph = CellGraph()
        pending = cell.pending
        m = len(pending)
        if m:
            # row k of the set is tested against len(graph) + k vertices
            stats.overlap_tests += m * len(graph) + m * (m - 1) // 2
            stats.edges_touched += graph.connect(self._table, pending)
            del pending[:]
        cell.stale = False
        cell.cw = graph.max_upper()
        stats.upper_bound_recomputes += 1

    # -- Algorithm 4 -------------------------------------------------------------

    def _exact_weight_computation(self, key: CellKey) -> None:
        """Algorithm 4: one sweep of the whole cell when at least
        ``_CELL_SWEEP_MIN`` dirty vertices survive Pruning Rule 2/4 (and
        no tightener is set), else ``Local-Plane-Sweep`` for every
        vertex that survives it, adopting improvements into the
        monitored answer."""
        graph = self._cells[key].graph
        relax = 1.0 - self.epsilon
        stats = self.stats
        upper = graph.upper
        dirty = graph.dirty
        dirty_survivors = sum(
            1 for j in range(graph.head, len(upper))
            if dirty[j] and relax * upper[j] > self._star_w
        )
        anchor = -1
        if self._tighten is None and dirty_survivors >= _CELL_SWEEP_MIN:
            anchor = graph.cap_at_cell_max(self.grid.cell_extent(key))
            stats.cell_sweeps += 1
        if anchor >= 0:
            pruned = len(graph) - 1
            if relax * upper[anchor] > self._star_w:
                if dirty[anchor]:
                    self._sweep_vertex(graph, anchor)
                self._adopt(graph, anchor, key)
            else:
                pruned += 1
            stats.vertices_pruned += pruned
        else:
            self._sweep_vertices(graph, key)
        # the largest bound, or 0.0 when none is positive
        cw = graph.max_upper()
        self._cells[key].cw = cw if cw > 0.0 else 0.0
        stats.upper_bound_recomputes += 1

    def _sweep_vertices(self, graph: CellGraph, key: CellKey) -> None:
        relax = 1.0 - self.epsilon
        tighten = self._tighten
        stats = self.stats
        upper = graph.upper
        exact = graph.exact
        dirty = graph.dirty
        n = len(upper)
        pruned = 0
        i = graph.head
        while True:
            # Rule 2/4 in one scan: every vertex skipped here is pruned
            # (ρ changes only when a visited vertex becomes the answer)
            rho = self._star_w
            j = graph.next_above(i, relax, rho)
            pruned += j - i
            if j == n:
                break
            i = j + 1
            if tighten is not None and upper[j] > exact[j]:
                upper[j] = tighten(graph.vertex(j), rho)
                stats.bound_tightenings += 1
                if not relax * upper[j] > rho:
                    pruned += 1
                    continue
            # sweep only when N(ri) changed since the last exact
            # computation; otherwise `space` is already the exact si and
            # re-sweeping would reproduce it verbatim.  `dirty` is set
            # by every new edge and cleared by every sweep, so it is
            # exactly that condition.
            if dirty[j]:
                self._sweep_vertex(graph, j)
            self._adopt(graph, j, key)
        stats.vertices_pruned += pruned

    def _adopt(self, graph: CellGraph, j: int, key: CellKey) -> None:
        if self._star is None or graph.exact[j] > self._star_w:
            self._star = graph.vertex(j)
            self._star_w = graph.exact[j]
            self._star_cell = key

    def _sweep_vertex(self, graph: CellGraph, i: int) -> None:
        # looked up per call: the end-to-end tracer patches this name
        space = local_plane_sweep_cached(graph.vertex(i))
        graph.settle(i, space)
        star = self._star
        if star is not None and star.graph is graph and star.pos == graph.base + i:
            # the monitored vertex itself was re-swept: its (live) space
            # may be a new region, or even a weight one ulp apart
            self._star_w = space.weight
        self.stats.local_sweeps += 1

    # -- result --------------------------------------------------------------------

    def _compute_result(self, tick: int) -> MaxRSResult:
        # answers carry their quality contract: exact when ε = 0, a
        # hard (1-ε) weight floor otherwise (Theorem 1)
        mode = "approx" if self.epsilon > 0.0 else "exact"
        guarantee = 1.0 - self.epsilon
        if self._star is None:
            return MaxRSResult(
                tick=tick,
                window_size=len(self.window),
                mode=mode,
                guarantee=guarantee,
            )
        return MaxRSResult.single(
            self._star.space,
            tick=tick,
            window_size=len(self.window),
            mode=mode,
            guarantee=guarantee,
        )

    # -- diagnostics -----------------------------------------------------------------

    @property
    def cell_count(self) -> int:
        return len(self._cells)

    @property
    def vertex_count(self) -> int:
        return sum(
            len(c.graph) for c in self._cells.values() if c.graph is not None
        )


class DictTopKCell(DictCell):
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


class DictTopKMonitor(DictAG2Monitor):
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

    def _make_cell(self) -> DictCell:
        return DictTopKCell()

    def _cell_purged(self, cell: DictCell) -> None:
        assert isinstance(cell, DictTopKCell)
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
            assert isinstance(cell, DictTopKCell)
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
        assert isinstance(cell, DictTopKCell)
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
