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

* ``OverlapComputation`` re-derives ``c.w`` as the maximum bound over
  *all* cell vertices, not only those touched by pending rectangles —
  the literal pseudocode could under-set ``c.w`` when an untouched
  vertex holds the maximum, and Property 4 must never be violated.
* Candidate cells are visited in decreasing ``c.w`` order, so the
  branch-and-bound loop can stop at the first cell that fails Rule 1.
* Optional Algorithm 5 upper-bound tightening (§5.3) plugs in via the
  ``tighten`` argument; it exists for the Table 5 ablation and is off
  by default, matching the paper's conclusion that it does not pay off.
"""

from __future__ import annotations

import math
from collections import deque
from heapq import heapify, heappop
from typing import Callable, Deque, Dict

from repro.core.graph import CellGraph, Vertex
from repro.core.grid import CellKey, UniformGrid, default_cell_size
from repro.core.monitor import MaxRSMonitor
from repro.core.objects import WeightedRect, dual_rect
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
        # rectangles mapped here but not yet overlap-checked, in
        # arrival order: (sequence number, rectangle)
        self.pending: Deque[tuple[int, WeightedRect]] = deque()
        self.cw = 0.0
        # creation order within the owning monitor; mirrors the cell
        # dict's insertion order so heap-based candidate ordering
        # breaks c.w ties exactly like a stable sort over the dict did
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
        self._next_seq = 0
        self._next_cell_rank = 0
        self._expired_upto = -1
        # every (seq, key) mapping made by _map_arrivals, in seq order;
        # purging pops the expired prefix and touches only those cells
        # instead of scanning the whole cell dict per batch
        self._expiry_log: Deque[tuple[int, CellKey]] = deque()
        # the monitored answer: the vertex whose exact space we report,
        # and that space's weight (kept equal to star.space.weight)
        self._star: Vertex | None = None
        self._star_w = _NEG_INF
        self._star_cell: CellKey | None = None

    # -- Algorithm 2 ---------------------------------------------------------

    def _on_delta(self, delta: WindowUpdate) -> None:
        self._expired_upto += len(delta.expired)
        self._map_arrivals(delta)
        self._purge_all()
        if not self._cells:
            self._clear_star()
            return
        # lines 6-10: refresh (or re-seed) the monitored answer first so
        # the pruning threshold is as large as possible
        start_key = self._pick_start_cell()
        self._overlap_computation(self._cells[start_key])
        self._exact_weight_computation(start_key)
        # lines 11-15: branch-and-bound over the remaining cells; in
        # "bound" order the first Rule-1 failure prunes the rest, in
        # "arbitrary" order every cell is tested individually
        if self.visit_order == "bound":
            # a heap beats a full sort here: the typical batch visits a
            # handful of cells before the first Rule-1 failure prunes
            # everything else, so most candidates are never popped.
            # (-cw, rank) pops in the exact order sorted() produced —
            # rank mirrors the cell dict's insertion order.
            heap = [
                (-cell.cw, cell.rank, key)
                for key, cell in self._cells.items()
                if key != start_key
            ]
            heapify(heap)
            while heap:
                neg_cw, _rank, key = heappop(heap)
                cell = self._cells[key]
                if not self._may_beat(cell.cw):
                    pruned = len(heap) + 1
                    self.stats.cells_pruned += pruned
                    self.metrics.inc("cells_pruned", pruned)
                    break
                self._overlap_computation(cell)
                if self._may_beat(cell.cw):
                    self._exact_weight_computation(key)
                else:
                    self.stats.cells_pruned += 1
                    self.metrics.inc("cells_pruned")
            return
        for key in [key for key in self._cells if key != start_key]:
            cell = self._cells[key]
            if not self._may_beat(cell.cw):
                self.stats.cells_pruned += 1
                self.metrics.inc("cells_pruned")
                continue
            self._overlap_computation(cell)
            if self._may_beat(cell.cw):
                self._exact_weight_computation(key)
            else:
                self.stats.cells_pruned += 1
                self.metrics.inc("cells_pruned")

    # -- batch plumbing --------------------------------------------------------

    def _map_arrivals(self, delta: WindowUpdate) -> None:
        """Lines 1-5: route new rectangles to their cells, growing each
        cell bound by the arriving weight (Equation 5)."""
        cells = self._cells
        grid_keys = self.grid.cell_keys
        width = self.rect_width
        height = self.rect_height
        log = self._expiry_log.append
        for obj in delta.arrived:
            seq = self._next_seq
            self._next_seq += 1
            wr = dual_rect(obj, width, height)
            weight = wr.weight
            for key in grid_keys(wr.rect):
                cell = cells.get(key)
                if cell is None:
                    cell = self._make_cell()
                    cell.rank = self._next_cell_rank
                    self._next_cell_rank += 1
                    cells[key] = cell
                cell.pending.append((seq, wr))
                cell.cw += weight
                log((seq, key))

    def _make_cell(self) -> AG2Cell:
        """Cell factory; the top-k monitor overrides it to attach the
        per-cell candidate list."""
        return AG2Cell()

    def _purge_all(self) -> None:
        """Expire stale vertices/pending entries from the cells that
        hold them.

        The expiry log records every ``(seq, key)`` mapping in arrival
        order, so the cells owning expired entries are exactly those in
        the log's expired prefix — O(expired × cells-per-rect) per
        batch instead of a scan over every materialised cell.  Purging
        only removes weight, so cell bounds remain valid upper bounds
        without adjustment; empty cells are dropped.
        """
        expired_upto = self._expired_upto
        if self._star is not None and self._star.seq <= expired_upto:
            self._clear_star()
        log = self._expiry_log
        if not log or log[0][0] > expired_upto:
            return
        touched: set[CellKey] = set()
        add = touched.add
        while log and log[0][0] <= expired_upto:
            add(log.popleft()[1])
        cells = self._cells
        for key in touched:
            cell = cells.get(key)
            if cell is None:
                continue
            graph = cell.graph
            removed = 0 if graph is None else graph.expire_upto(expired_upto)
            pending = cell.pending
            while pending and pending[0][0] <= expired_upto:
                pending.popleft()
            if not pending and not graph:
                del cells[key]
            elif removed:
                self._cell_purged(cell)

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
        return max(
            (cell.cw, key) for key, cell in self._cells.items()
        )[1]

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
        metrics = self.metrics
        metrics.inc("cells_visited")
        graph = cell.graph
        if graph is None:
            graph = cell.graph = CellGraph()
        for seq, wr in cell.pending:
            live = len(graph)
            stats.overlap_tests += live
            metrics.inc("overlap_tests", live)
            metrics.inc("edges_touched", graph.connect(wr, seq))
        cell.pending.clear()
        cell.cw = graph.max_upper()
        metrics.inc("upper_bound_recomputes")

    # -- Algorithm 4 -------------------------------------------------------------

    def _exact_weight_computation(self, key: CellKey) -> None:
        """Scan the cell's vertices; run ``Local-Plane-Sweep`` for every
        vertex that survives Pruning Rule 2/4, adopting improvements
        into the monitored answer."""
        graph = self._cells[key].graph
        relax = 1.0 - self.epsilon
        tighten = self._tighten
        metrics = self.metrics
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
                metrics.inc("bound_tightenings")
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
        if pruned:
            self.stats.vertices_pruned += pruned
            metrics.inc("vertices_pruned", pruned)
        # the largest bound, or 0.0 when none is positive
        cw = graph.max_upper()
        self._cells[key].cw = cw if cw > 0.0 else 0.0
        metrics.inc("upper_bound_recomputes")

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
        self.metrics.inc("local_sweeps")

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
        """Verify Property 4's checkable half and the flat cell layout
        (see :meth:`CellGraph.check_invariants`) on every cell.

        Raises :class:`InvariantViolationError` on the first violation.
        Intended for tests and debugging; never called on hot paths.
        """
        tol = 1e-6
        for key, cell in self._cells.items():
            graph = cell.graph
            if graph is not None:
                graph.check_invariants(f"cell {key}")
            if cell.is_empty:
                raise InvariantViolationError(f"empty cell {key} retained")
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
        star = self._star
        if star is not None and star.space.weight != self._star_w:
            raise InvariantViolationError(
                f"answer weight {self._star_w} differs from its vertex's "
                f"space {star.space.weight}"
            )
