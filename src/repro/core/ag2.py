"""aG2 — aggregate G2 index and the branch-and-bound monitor
(paper §5, Algorithms 2–4; §6.1 approximate variant).

aG2 extends every G2 cell with two things: a *pending set* ``R`` of
rectangles mapped to the cell but not yet overlap-checked, and an
upper-bound weight ``c.w`` maintained by Equations (4)–(5).  Vertices
carry the bound ``s̄i`` of Equation (3).  Together they give Property 4

    ``c.w  ≥  s̄i  ≥  si.w``   for every vertex of the cell,

which powers two pruning rules: skip a whole cell when ``c.w`` cannot
beat the monitored answer (Rule 1), and skip a vertex's
``Local-Plane-Sweep`` when ``s̄i`` cannot (Rule 2).  The approximate
monitor of §6.1 is the same algorithm with both tests relaxed by
``(1-ε)`` (Rules 3–4), which Theorem 1 shows keeps the guarantee
``s.w ≥ (1-ε)·s*.w`` at all times.

Implementation notes (see DESIGN.md §5):

* The arrival path is flat: a batch is routed in one pass into the
  monitor's :class:`~repro.core.graph.ArrivalTable` (each row's dual
  rectangle, weight and cell cover), a cell's pending set is an
  ``array('q')`` of seqs, and a visited cell connects its whole pending
  set in one kernel call.  Purging re-derives the cells that hold
  expired rectangles from the expired rows' covers.  No per-arrival
  object is built besides the stream object the window already holds.
* ``OverlapComputation`` re-derives ``c.w`` as the maximum bound over
  *all* cell vertices, not only those touched by pending rectangles —
  the literal pseudocode could under-set ``c.w`` when an untouched
  vertex holds the maximum, and Property 4 must never be violated.
* Candidate cells are visited in decreasing ``c.w`` order, so the
  branch-and-bound loop can stop at the first cell that fails Rule 1.
  The order is one persistent lazy heap of ``(-c.w, rank, key)``
  entries: a batch pushes one entry per cell it maps to or visits and
  pops only the cells it visits (plus dead entries), so it never ranks
  the cells Rule 1 prunes.
* Optional Algorithm 5 upper-bound tightening (§5.3) plugs in via the
  ``tighten`` argument; it exists for the Table 5 ablation and is off
  by default, matching the paper's conclusion that it does not pay off.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from heapq import heapify, heappop, heappush
from typing import Callable, Dict, Iterator

from repro.core.graph import ArrivalTable, CellGraph, Vertex
from repro.core.grid import CellKey, UniformGrid, default_cell_size
from repro.core.monitor import MaxRSMonitor
# not called here any more: the end-to-end benchmark's tracer still
# patches ``ag2.dual_rect`` as the dual transform's span
from repro.core.objects import dual_rect  # noqa: F401
from repro.core.planesweep import local_plane_sweep_cached
from repro.core.spaces import MaxRSResult
from repro.errors import InvalidParameterError, InvariantViolationError
from repro.window.base import SlidingWindow, WindowUpdate

__all__ = ["AG2Monitor", "AG2Cell"]

_NEG_INF = float("-inf")

# Signature of an upper-bound tightener (Algorithm 5): given a vertex
# whose bound exceeds the threshold, return a possibly smaller — but
# still valid — upper bound on the true si.
Tightener = Callable[[Vertex, float], float]


class AG2Cell:
    """One aG2 cell: graph + pending set ``R`` + cell bound ``c.w``."""

    __slots__ = ("graph", "pending", "cw", "rank")

    def __init__(self) -> None:
        # allocated by the cell's first _overlap_computation: in a
        # sparse window most mapped cells are pruned and never visited
        self.graph: CellGraph | None = None
        # seqs of the rectangles mapped here but not yet overlap-checked,
        # in arrival order (rows of the monitor's arrival table)
        self.pending = array("q")
        self.cw = 0.0
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


class AG2Monitor(MaxRSMonitor):
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
        self._cells: Dict[CellKey, AG2Cell] = {}
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

    def _visit(self, key: CellKey, cell: AG2Cell) -> None:
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

    def _candidates(self) -> Iterator[tuple[CellKey, AG2Cell]]:
        """Unvisited cells in decreasing ``(c.w, -rank)`` order — the
        order a stable sort over the cell dict gives.

        Yields the top live entry without popping it; the caller either
        visits the cell (killing the entry, which the next step pops) or
        stops, leaving the entry in place.  Dead entries are dropped.
        """
        order = self._order
        cells = self._cells
        while order:
            entry = order[0]
            if self._live(entry):
                yield entry[2], cells[entry[2]]
            else:
                heappop(order)

    def _settle_order(self) -> None:
        """Push the bound of every cell visited this batch, then rebuild
        the heap from the cell dict once dead entries outnumber the
        live cells, so it holds at most ``2 × len(cells)`` entries."""
        order = self._order
        cells = self._cells
        for key in self._visited:
            cell = cells[key]
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
        touched: Dict[CellKey, AG2Cell] = {}
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

    def _make_cell(self) -> AG2Cell:
        """Cell factory; the top-k monitor overrides it to attach the
        per-cell candidate list."""
        return AG2Cell()

    def _purge_all(self) -> None:
        """Expire stale vertices/pending entries from the cells that
        hold them.

        The arrival table keeps every live row's cell cover, so the
        cells owning expired entries are exactly those covered by the
        expired rows — O(expired × cells-per-rect) per batch instead of
        a scan over every materialised cell.  Purging only removes
        weight, so cell bounds remain valid upper bounds without
        adjustment; empty cells are dropped.
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
            graph = cell.graph
            removed = 0 if graph is None else graph.expire_upto(expired_upto)
            if not pending and not graph:
                del cells[key]
            elif removed:
                self._cell_purged(cell)
        table.expire_upto(expired_upto)

    def _cell_purged(self, cell: AG2Cell) -> None:
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
        """The live cell with the largest ``c.w``; ties go to the largest
        key, as ``max((c.w, key))`` over the cell dict would pick.

        Entries tied with the root's bound form a subtree under the
        root, so only they are read.  Requires a live cell.
        """
        top_key, _cell = next(self._candidates())
        order = self._order
        neg_cw = order[0][0]
        stack = [1, 2]
        while stack:
            i = stack.pop()
            if i < len(order) and order[i][0] == neg_cw:
                if order[i][2] > top_key and self._live(order[i]):
                    top_key = order[i][2]
                stack += (2 * i + 1, 2 * i + 2)
        return top_key

    def _may_beat(self, bound: float) -> bool:
        """Pruning Rule 1 (ε = 0) / Rule 3 (ε > 0): can a cell with this
        bound contain an answer we are obliged to adopt?"""
        if self._star is None:
            return True
        return (1.0 - self.epsilon) * bound > self._star_w

    # -- Algorithm 3 -------------------------------------------------------------

    def _overlap_computation(self, cell: AG2Cell) -> None:
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
        cell.cw = graph.max_upper()
        stats.upper_bound_recomputes += 1

    # -- Algorithm 4 -------------------------------------------------------------

    def _exact_weight_computation(self, key: CellKey) -> None:
        """Scan the cell's vertices; run ``Local-Plane-Sweep`` for every
        vertex that survives Pruning Rule 2/4, adopting improvements
        into the monitored answer."""
        graph = self._cells[key].graph
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
            if self._star is None or exact[j] > self._star_w:
                self._star = graph.vertex(j)
                self._star_w = exact[j]
                self._star_cell = key
        stats.vertices_pruned += pruned
        # the largest bound, or 0.0 when none is positive
        cw = graph.max_upper()
        self._cells[key].cw = cw if cw > 0.0 else 0.0
        stats.upper_bound_recomputes += 1

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

    @property
    def pending_count(self) -> int:
        return sum(len(c.pending) for c in self._cells.values())

    def check_invariants(self) -> None:
        """Verify Property 4's checkable half, the flat cell layout
        (see :meth:`CellGraph.check_invariants`) on every cell, the
        arrival table and the pending sets (increasing live seqs, all
        newer than the cell's vertices), and that every cell has a live
        candidate-order entry at its current ``c.w``.

        Raises :class:`InvariantViolationError` on the first violation.
        Intended for tests and debugging; never called on hot paths.
        """
        tol = 1e-6
        table = self._table
        table.check_invariants(self._expired_upto)
        end = table.base + len(table.objs)
        for key, cell in self._cells.items():
            graph = cell.graph
            if graph is not None:
                graph.check_invariants(f"cell {key}")
            if cell.is_empty:
                raise InvariantViolationError(f"empty cell {key} retained")
            pending = cell.pending
            newest = graph.seqs[-1] if graph else self._expired_upto
            for seq in pending:
                if not newest < seq < end:
                    raise InvariantViolationError(
                        f"cell {key}: pending seq={seq} not in "
                        f"({newest}, {end}): expired, repeated, out of "
                        "order or older than a vertex"
                    )
                newest = seq
            top = cell.max_upper()
            if cell.cw < top - tol:
                raise InvariantViolationError(
                    f"cell {key}: c.w={cell.cw} below max vertex bound {top}"
                )
            if graph is None:
                continue
            for i in range(graph.head, len(graph.seqs)):
                seq = graph.seqs[i]
                if seq <= self._expired_upto:
                    raise InvariantViolationError(
                        f"cell {key}: expired vertex seq={seq} retained"
                    )
                if not math.isfinite(graph.upper[i]):
                    raise InvariantViolationError(
                        f"cell {key}: non-finite bound on seq={seq}"
                    )
        entries = set(self._order)
        for key, cell in self._cells.items():
            if (-cell.cw, cell.rank, key) not in entries:
                raise InvariantViolationError(
                    f"cell {key}: no candidate-order entry for c.w={cell.cw}"
                )
        star = self._star
        if star is not None and star.space.weight != self._star_w:
            raise InvariantViolationError(
                f"answer weight {self._star_w} differs from its vertex's "
                f"space {star.space.weight}"
            )
