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

* The cell index is flat (:class:`~repro.core.cells.CellTable`): a
  batch is routed in one call into the monitor's
  :class:`~repro.core.graph.ArrivalTable` (each row's dual rectangle,
  weight and cell cover), and one more call maps it — finds or creates
  every covered cell in a key hash, grows ``c.w``, and pushes each
  touched cell onto the candidate heap once.  Purging is one call over
  the expired rows' covers.  A cell's bound, rank and bookkeeping are
  array slots; it gets a Python object (:class:`AG2Cell`, holding its
  :class:`~repro.core.graph.CellGraph`) only on its first visit, and
  its pending set is a list of (row, cell) links in the table, taken
  whole by a visit, which connects it in one kernel call.  No
  per-arrival object is built besides the stream object the window
  already holds, and no per-cell object for the cells Rule 1 prunes.
* ``c.w`` follows expiry lazily: purge unlinks an expired row's pending
  links and marks the cell stale, and a stale cell whose heap entry
  reaches the root is re-keyed at its live bound — the bound at its
  last visit plus its live pending weights, added again in row order,
  never by subtraction — so Rule 1 tests live bounds in the bound
  order (docs/ALGORITHMS.md §4).
* ``OverlapComputation`` re-derives ``c.w`` as the maximum bound over
  *all* cell vertices, not only those touched by pending rectangles —
  the literal pseudocode could under-set ``c.w`` when an untouched
  vertex holds the maximum, and Property 4 must never be violated.
* Candidate cells are visited in decreasing ``c.w`` order, so the
  branch-and-bound loop can stop at the first cell that fails Rule 1.
  The order is one persistent lazy heap of ``(c.w, rank, id)``
  entries, ties to the older cell: a batch pushes one entry per cell it
  maps to or visits and pops only the cells it visits (plus dead
  entries), so it never ranks the cells Rule 1 prunes.
* A dense cell is swept once as a whole instead of vertex by vertex
  (:meth:`AG2Monitor._exact_weight_computation`, docs/ALGORITHMS.md
  §4): one clipped sweep gives the cell max, every vertex bound is
  capped at it plus a proven rounding slack (every rectangle of a cell
  meets its open interior, so no ``si`` exceeds the cell max: Property
  4 holds as stated), and only the anchor of the max face is swept
  locally.  Answers keep their weight; among regions of equal weight
  the reported one may differ (DESIGN.md §1's tie contract).
* Optional Algorithm 5 upper-bound tightening (§5.3) plugs in via the
  ``tighten`` argument; it exists for the Table 5 ablation and is off
  by default, matching the paper's conclusion that it does not pay off.
"""

from __future__ import annotations

import math
from array import array
from typing import Callable, Iterator

from repro.core.cells import C_NEWEST, C_STALE, CF, CellTable
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
#: the dense-cell cost rule: a visited cell with at least this many
#: dirty vertices past Rule 2/4 is swept once as a whole instead of
#: vertex by vertex (docs/PERFORMANCE.md §9)
_CELL_SWEEP_MIN = 2

# Signature of an upper-bound tightener (Algorithm 5): given a vertex
# whose bound exceeds the threshold, return a possibly smaller — but
# still valid — upper bound on the true si.
Tightener = Callable[[Vertex, float], float]


class AG2Cell:
    """A visited aG2 cell's Python side: its key and overlap graph.

    Built on the cell's first visit; its bound ``c.w``, rank and
    pending set live in the monitor's :class:`CellTable`.
    """

    __slots__ = ("key", "graph")

    def __init__(self, key: CellKey) -> None:
        self.key = key
        self.graph = CellGraph()


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
        # the live cells, their key hash and the candidate heap
        self._cells = CellTable()
        self._expired_upto = -1
        # every live arrival's rectangle and cell cover, by seq; mapping
        # and purging read the covers, a visit reads a cell's pending rows
        self._table = ArrivalTable()
        # the monitored answer: the vertex whose exact space we report,
        # that space's weight (kept equal to star.space.weight) and the
        # id of its cell (alive while the vertex is)
        self._star: Vertex | None = None
        self._star_w = _NEG_INF
        self._star_cell: int | None = None
        # ids of the cells visited this batch, in visit order
        self._visited = array("q")

    # -- Algorithm 2 ---------------------------------------------------------

    def _on_delta(self, delta: WindowUpdate) -> None:
        self._expired_upto += len(delta.expired)
        self._map_arrivals(delta)
        self._purge_all()
        cells = self._cells
        count = cells.count
        if not count:
            self._clear_star()
            cells.clear_heap()
            return
        # lines 6-10: refresh (or re-seed) the monitored answer first so
        # the pruning threshold is as large as possible
        start = self._pick_start_cell()
        self._visit(start)
        self._exact_weight_computation(start)
        # lines 11-15: branch-and-bound over the remaining cells; in
        # "bound" order the first Rule-1 failure prunes the rest, in
        # "arbitrary" order every cell is tested individually.  Every
        # cell not exactly computed is pruned.
        exact = 0
        cw = cells.cw
        if self.visit_order == "bound":
            for c in self._candidates():
                if not self._may_beat(cw[c]):
                    break
                self._visit(c)
                if self._may_beat(cw[c]):
                    self._exact_weight_computation(c)
                    exact += 1
        else:
            for c in cells.by_rank():
                if c == start or not self._may_beat(cw[c]):
                    continue
                self._visit(c)
                if self._may_beat(cw[c]):
                    self._exact_weight_computation(c)
                    exact += 1
        self.stats.cells_pruned += count - 1 - exact
        self._settle_order()

    # -- candidate order -------------------------------------------------------

    def _visit(self, c: int) -> None:
        """Overlap-compute a candidate cell, giving it its Python object
        on the first visit; its heap entries are dead until
        :meth:`_settle_order` pushes its new bound."""
        cells = self._cells
        cell = cells.objs[c]
        if cell is None:
            cell = self._make_cell(cells.key(c))
            cells.hold(c, cell)
        self._visited.append(c)
        self._overlap_computation(c, cell)

    def _candidates(self) -> Iterator[int]:
        """Unvisited cells in decreasing ``(c.w, -rank)`` order: the
        creation order breaks ties.

        Yields the top live entry without popping it; the caller either
        visits the cell (killing the entry, which the next step drops)
        or stops, leaving the entry in place.  Dead entries are dropped.
        """
        top = self._cells.top
        c = top()
        while c >= 0:
            yield c
            c = top()

    def _settle_order(self) -> None:
        """Push the bound of every cell visited this batch; the heap is
        rebuilt from the live cells once dead entries outnumber them,
        so it holds at most ``2 × cell_count`` entries."""
        self._cells.settle(self._visited)
        del self._visited[:]

    # -- batch plumbing --------------------------------------------------------

    def _map_arrivals(self, delta: WindowUpdate) -> None:
        """Lines 1-5: route new rectangles to their cells, growing each
        cell bound by the arriving weight (Equation 5)."""
        table = self._table
        start = table.route(
            delta.arrived, self.rect_width, self.rect_height, self.grid
        )
        self._cells.map(table, start)

    def _make_cell(self, key: CellKey) -> AG2Cell:
        """Cell factory (first visit); the top-k monitor overrides it to
        attach the per-cell candidate list."""
        return AG2Cell(key)

    def _purge_all(self) -> None:
        """Expire stale vertices/pending entries from the cells that
        hold them.

        The arrival table keeps every live row's cell cover, so the
        cells owning expired entries are exactly those covered by the
        expired rows — O(expired × cells-per-rect) per batch instead of
        a scan over every materialised cell.  There the kernel unlinks
        the expired pending rows and marks their cells stale: purging
        only removes weight, so a stale ``c.w`` is still an upper bound,
        and the candidate order re-keys it at its live bound when it
        reaches the heap root.  A held graph's vertices expire here too;
        its part of the bound, the last-visit bound, is lowered only by
        the next visit.  A cell whose newest row expired is empty and
        dropped.
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
        objs = cells.objs
        for c in cells.purge(table, head, stop, expired_upto):
            cell = objs[c]
            removed = cell.graph.expire_upto(expired_upto)
            if not cells.alive(c):
                cells.release(c)
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

    def _pick_start_cell(self) -> int:
        """The cell holding ``s*``; if it expired, the Equation (6)
        heuristic: the cell with the largest upper bound."""
        if self._star_cell is not None:
            return self._star_cell
        return self._top_bound_cell()

    def _top_bound_cell(self) -> int:
        """The live cell with the largest ``c.w``; ties go to the largest
        key, as ``max((c.w, key))`` over the cells would pick.
        Requires a live cell."""
        return self._cells.top_bound()

    def _may_beat(self, bound: float) -> bool:
        """Pruning Rule 1 (ε = 0) / Rule 3 (ε > 0): can a cell with this
        bound contain an answer we are obliged to adopt?"""
        if self._star is None:
            return True
        return (1.0 - self.epsilon) * bound > self._star_w

    # -- Algorithm 3 -------------------------------------------------------------

    def _overlap_computation(self, c: int, cell: AG2Cell) -> None:
        """Move pending rectangles into the graph, adding edges from
        older overlapping vertices (Equation 3 grows their bounds), then
        re-derive the cell bound from all vertex bounds (Equation 4)."""
        stats = self.stats
        stats.cells_visited += 1
        graph = cell.graph
        table = self._table
        pending = self._cells.take_pending(c)
        m = len(pending)
        if m:
            # row k of the set is tested against len(graph) + k vertices
            stats.overlap_tests += m * len(graph) + m * (m - 1) // 2
            stats.edges_touched += graph.connect(table, pending)
        self._cells.cw[c] = graph.max_upper()
        stats.upper_bound_recomputes += 1

    # -- Algorithm 4 -------------------------------------------------------------

    def _exact_weight_computation(self, c: int) -> None:
        """Algorithm 4 on a visited cell, then re-derive its bound.

        A cell where at least :data:`_CELL_SWEEP_MIN` dirty vertices
        survive Pruning Rule 2/4 is swept once as a whole
        (:meth:`_sweep_cell`); any other cell, and every cell under an
        Algorithm 5 tightener, runs ``Local-Plane-Sweep`` for each
        surviving vertex (:meth:`_sweep_vertices`)."""
        graph = self._cells.objs[c].graph
        if not (
            self._tighten is None
            and self._dense(graph)
            and self._sweep_cell(graph, c)
        ):
            self._sweep_vertices(graph, c)
        # the largest bound, or 0.0 when none is positive
        cw = graph.max_upper()
        self._cells.cw[c] = cw if cw > 0.0 else 0.0
        self.stats.upper_bound_recomputes += 1

    def _dense(self, graph: CellGraph) -> bool:
        """The cost rule: do at least :data:`_CELL_SWEEP_MIN` dirty
        vertices pass Pruning Rule 2/4?"""
        relax = 1.0 - self.epsilon
        rho = self._star_w
        dirty = graph.dirty
        n = len(dirty)
        need = _CELL_SWEEP_MIN
        j = graph.next_above(graph.head, relax, rho)
        while j < n:
            if dirty[j]:
                need -= 1
                if not need:
                    return True
            j = graph.next_above(j + 1, relax, rho)
        return False

    def _sweep_cell(self, graph: CellGraph, c: int) -> bool:
        """One sweep of the whole cell caps every vertex bound at the
        cell max (``CellGraph.cap_at_cell_max``); then only the anchor,
        the oldest vertex holding the max face, is swept locally, if it
        still passes Rule 2/4, and offered as the answer.  Every other
        vertex counts as pruned.  False when the sweep capped nothing
        (the caller then sweeps vertex by vertex)."""
        anchor = graph.cap_at_cell_max(
            self.grid.cell_extent(self._cells.key(c))
        )
        stats = self.stats
        stats.cell_sweeps += 1
        if anchor < 0:
            return False
        pruned = len(graph) - 1
        if (1.0 - self.epsilon) * graph.upper[anchor] > self._star_w:
            if graph.dirty[anchor]:
                self._sweep_vertex(graph, anchor)
            self._offer(graph, anchor, c)
        else:
            pruned += 1
        stats.vertices_pruned += pruned
        return True

    def _sweep_vertices(self, graph: CellGraph, c: int) -> None:
        """Scan the cell's vertices; run ``Local-Plane-Sweep`` for every
        vertex that survives Pruning Rule 2/4, adopting improvements
        into the monitored answer."""
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
            self._offer(graph, j, c)
        stats.vertices_pruned += pruned

    def _offer(self, graph: CellGraph, j: int, c: int) -> None:
        """Adopt vertex ``j`` of cell ``c`` as the answer if its exact
        weight beats the monitored one (strictly: ties keep the
        answer)."""
        if self._star is None or graph.exact[j] > self._star_w:
            self._star = graph.vertex(j)
            self._star_w = graph.exact[j]
            self._star_cell = c

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
        return self._cells.count

    @property
    def vertex_count(self) -> int:
        return sum(len(c.graph) for c in self._cells.objs if c is not None)

    @property
    def pending_count(self) -> int:
        cells = self._cells
        return sum(len(cells.pending(c)) for c in cells.ids())

    def check_invariants(self) -> None:
        """Verify Property 4's checkable half, the cell table (one hash
        slot per live cell, a live candidate-order entry at its current
        ``c.w``, free and held ids, the link table), the flat cell
        layout (see :meth:`CellGraph.check_invariants`) on every visited
        cell, the arrival table, that each cell's vertices followed by
        its pending list are exactly the live rows whose cover holds it,
        in order, with each link carrying its row's weight, and the
        live bound: a cell's ``c.w`` is its last-visit bound plus its
        pending weights added in row order, bit for bit, unless the cell
        is stale, when it is at least that sum.

        Raises :class:`InvariantViolationError` on the first violation.
        Intended for tests and debugging; never called on hot paths.
        """
        tol = 1e-6
        table = self._table
        expired_upto = self._expired_upto
        table.check_invariants(expired_upto)
        cells = self._cells
        cells.check_invariants(expired_upto)
        # the live rows covering each key, in seq order
        covering: dict[CellKey, list[int]] = {}
        cover = table.cover
        for r in range(table.head, len(table.objs)):
            i0, i1, j0, j1 = cover[4 * r:4 * r + 4]
            for i in range(i0, i1 + 1):
                for j in range(j0, j1 + 1):
                    covering.setdefault((i, j), []).append(table.base + r)
        rows = table.rows
        ids = cells.ids()
        if {cells.key(c) for c in ids} != set(covering):
            raise InvariantViolationError(
                "the live cells are not exactly the cells live rows cover"
            )
        for c in ids:
            key = cells.key(c)
            cell = cells.objs[c]
            graph = None if cell is None else cell.graph
            if cell is not None and cell.key != key:
                raise InvariantViolationError(
                    f"cell {key}: its object names cell {cell.key}"
                )
            pending = cells.pending(c)
            seqs = [] if graph is None else list(graph.seqs[graph.head:])
            if seqs + pending != covering[key]:
                raise InvariantViolationError(
                    f"cell {key}: vertices {seqs} and pending seq="
                    f"{pending} are not the covering rows {covering[key]}:"
                    " a pending row expired, repeated, out of order or "
                    "older than a vertex"
                )
            newest = cells.meta[CF * c + C_NEWEST]
            if newest != covering[key][-1]:
                raise InvariantViolationError(
                    f"cell {key}: newest seq {newest}, "
                    f"expected {covering[key][-1]}"
                )
            weights = cells.pending_weights(c)
            if [w.hex() for w in weights] != [
                rows[5 * (seq - table.base) + 4].hex() for seq in pending
            ]:
                raise InvariantViolationError(
                    f"cell {key}: pending link weights {weights} are not "
                    "their rows' weights"
                )
            live = cells.live_bound(c)
            if cells.meta[CF * c + C_STALE]:
                if not cells.cw[c] >= live:
                    raise InvariantViolationError(
                        f"cell {key}: stale c.w={cells.cw[c]} below its "
                        f"live bound {live}"
                    )
            elif cells.cw[c].hex() != live.hex():
                raise InvariantViolationError(
                    f"cell {key}: c.w={cells.cw[c].hex()} is not its "
                    f"last-visit bound plus its pending weights "
                    f"{live.hex()}"
                )
            if graph is None:
                continue
            graph.check_invariants(f"cell {key}")
            top = graph.max_upper()
            if cells.cw[c] < top - tol:
                raise InvariantViolationError(
                    f"cell {key}: c.w={cells.cw[c]} below max vertex "
                    f"bound {top}"
                )
            for i in range(graph.head, len(graph.seqs)):
                if not math.isfinite(graph.upper[i]):
                    raise InvariantViolationError(
                        f"cell {key}: non-finite bound on seq={graph.seqs[i]}"
                    )
        star = self._star
        if star is not None:
            if star.space.weight != self._star_w:
                raise InvariantViolationError(
                    f"answer weight {self._star_w} differs from its "
                    f"vertex's space {star.space.weight}"
                )
            c = self._star_cell
            if c is None or not cells.alive(c) or cells.objs[c].graph is not star.graph:
                raise InvariantViolationError(
                    "the answer's cell is not the live cell of its vertex"
                )
