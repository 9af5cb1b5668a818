"""aG2's persistent candidate order against the per-tick rebuild it
replaced.

aG2 and top-k keep one lazy heap of ``(c.w, rank, id)`` entries across
batches, in the flat cell table, and re-key a stale cell at its live
bound when it reaches the root.  The reference monitors below keep the
earlier loops, which ranked every live cell on every tick, over the
dict-per-cell monitors of ``dict_cells``; their per-tick heap re-keys a
stale cell the same way when it comes to the top, so the bound order is
the live-bound order.  Answers (to the bit) and every ``MonitorStats``
field must agree on every tick, and the heap must stay within twice the
live cell count.
"""

from __future__ import annotations

import dataclasses
import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dict_cells import DictAG2Monitor, DictTopKMonitor
from reference_kernel import use_reference
from repro.core.ag2 import AG2Monitor
from repro.core.cells import S_HEAP
from repro.core.objects import SpatialObject
from repro.core.spaces import region_key
from repro.core.topk import TopKAG2Monitor
from repro.errors import InvariantViolationError
from repro.window import CountWindow, TimeWindow


def _pop_live(m, heap):
    """The top of a per-tick heap of ``(-c.w, rank, key)``, after
    re-keying every stale cell that comes to the top (popped)."""
    while True:
        _neg_cw, rank, key = heap[0]
        cell = m._cells[key]
        if cell.stale and m._rekey(cell):
            heapq.heapreplace(heap, (-cell.cw, rank, key))
            continue
        return heapq.heappop(heap)[2]


def _start_by_bound(m):
    """The live cell with the largest live bound, ties to the largest
    key — after re-keying the stale cells that rank above it, as the
    flat table's search for it does."""
    cells = m._cells
    heap = [(-cell.cw, cell.rank, key) for key, cell in cells.items()]
    heapq.heapify(heap)
    _pop_live(m, heap)
    return max((m._live_bound(cell), key) for key, cell in cells.items())[1]


class _RebuildAG2(DictAG2Monitor):
    """aG2 with the per-tick heap over every live cell."""

    def _on_delta(self, delta):
        self._pass(delta)
        self._settle_order()  # the visited cells' last-visit bounds

    def _pass(self, delta):
        self._expired_upto += len(delta.expired)
        self._map_arrivals(delta)
        self._order.clear()  # unused here; keep it from growing
        self._purge_all()
        if not self._cells:
            self._clear_star()
            return
        start_key = self._pick_start_cell()
        self._visit(start_key, self._cells[start_key])
        self._exact_weight_computation(start_key)
        if self.visit_order == "bound":
            heap = [
                (-cell.cw, cell.rank, key)
                for key, cell in self._cells.items()
                if key != start_key
            ]
            heapq.heapify(heap)
            while heap:
                key = _pop_live(self, heap)
                cell = self._cells[key]
                if not self._may_beat(cell.cw):
                    self.stats.cells_pruned += len(heap) + 1
                    break
                self._visit(key, cell)
                if self._may_beat(cell.cw):
                    self._exact_weight_computation(key)
                else:
                    self.stats.cells_pruned += 1
            return
        for key in [key for key in self._cells if key != start_key]:
            cell = self._cells[key]
            if not self._may_beat(cell.cw):
                self.stats.cells_pruned += 1
                continue
            self._visit(key, cell)
            if self._may_beat(cell.cw):
                self._exact_weight_computation(key)
            else:
                self.stats.cells_pruned += 1

    def _pick_start_cell(self):
        if self._star_cell is not None and self._star_cell in self._cells:
            return self._star_cell
        return _start_by_bound(self)


class _RebuildTopK(DictTopKMonitor):
    """Top-k with the per-tick sort over every live cell."""

    def _on_delta(self, delta):
        self._pass(delta)
        self._settle_order()  # the visited cells' last-visit bounds

    def _pass(self, delta):
        self._expired_upto += len(delta.expired)
        self._map_arrivals(delta)
        self._order.clear()
        self._purge_all()
        self._star = None
        self._star_cell = None
        if not self._cells:
            self._answer = []
            return
        candidates = self._merge_candidates()
        rho = self._kth_weight(candidates)
        priority = {
            key
            for _w, _v, key in heapq.nlargest(
                self.k, candidates.values(), key=lambda entry: entry[0]
            )
        }
        if not priority:
            priority = {_start_by_bound(self)}
        for key in priority:
            self._visit(key, self._cells[key])
            rho = self._exact_topk(key, rho, candidates)
        order = [
            (-cell.cw, cell.rank, key)
            for key, cell in self._cells.items() if key not in priority
        ]
        heapq.heapify(order)
        while order:
            key = _pop_live(self, order)
            cell = self._cells[key]
            if not cell.cw > rho:
                self.stats.cells_pruned += len(order) + 1
                break
            self._visit(key, cell)
            if cell.cw > rho:
                rho = self._exact_topk(key, rho, candidates)
            else:
                self.stats.cells_pruned += 1
        self._answer = self._rank(candidates)


def _hex_answer(result):
    return [
        (reg.anchor_oid, *(float(v).hex() for v in (reg.weight, *region_key(reg))))
        for reg in result.regions
    ]


def _batches(objs, splits):
    pos = 0
    for size in splits:
        if pos >= len(objs):
            return
        yield objs[pos : pos + size]
        pos += size
    if pos < len(objs):
        yield objs[pos:]


# tie-heavy: a coarse coordinate grid and mostly equal weights, so many
# cells share c.w and the (c.w, rank) / (c.w, key) tie-breaks decide
points = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=12).map(lambda v: 5.0 * v),
        st.integers(min_value=0, max_value=12).map(lambda v: 5.0 * v),
        st.sampled_from([1.0, 1.0, 1.0, 2.0, 0.0]),
    ),
    max_size=80,
)


@pytest.mark.parametrize("kernel", ["compiled", "python"])
@settings(max_examples=40, deadline=None)
@given(
    points=points,
    splits=st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=15),
    size=st.integers(min_value=1, max_value=25),
    timed=st.booleans(),
    epsilon=st.sampled_from([0.0, 0.25]),
    visit_order=st.sampled_from(["bound", "arbitrary", "switch"]),
    side=st.sampled_from([4.0, 12.0]),
    cell_size=st.sampled_from([10.0, 25.0]),
)
def test_persistent_order_equals_per_tick_rebuild(
    kernel, points, splits, size, timed, epsilon, visit_order, side, cell_size
):
    objs = [
        SpatialObject(x=x, y=y, weight=w, timestamp=float(i // 3))
        for i, (x, y, w) in enumerate(points)
    ]

    def window():
        return TimeWindow(float(size)) if timed else CountWindow(size)

    start_order = "bound" if visit_order == "switch" else visit_order
    pairs = [
        (
            AG2Monitor(side, side, window(), cell_size=cell_size,
                       epsilon=epsilon, visit_order=start_order),
            _RebuildAG2(side, side, window(), cell_size=cell_size,
                        epsilon=epsilon, visit_order=start_order),
        ),
        (
            TopKAG2Monitor(side, side, window(), k=3, cell_size=cell_size),
            _RebuildTopK(side, side, window(), k=3, cell_size=cell_size),
        ),
    ]
    with pytest.MonkeyPatch.context() as mp:
        if kernel == "python":
            use_reference(mp)
        for tick, batch in enumerate(_batches(objs, splits)):
            for new, old in pairs:
                if visit_order == "switch":
                    new.visit_order = old.visit_order = (
                        "bound", "arbitrary"
                    )[tick % 2]
                got = new.update(batch)
                want = old.update(batch)
                assert _hex_answer(got) == _hex_answer(want)
                assert dataclasses.asdict(new.stats) == dataclasses.asdict(
                    old.stats
                )
                assert new._cells.state[S_HEAP] <= 2 * new.cell_count
                new.check_invariants()


class TestStartCellTieBreak:
    def test_expired_answer_restarts_at_the_largest_tied_key(self):
        """s* expires and three cells tie at the largest c.w: the start
        cell is the largest key (as ``max((c.w, key))`` picks), not the
        oldest cell that tops the heap."""
        m = AG2Monitor(2.0, 2.0, CountWindow(4), cell_size=10.0)
        key = m._cells.key
        m.update([SpatialObject(x=55.0, y=55.0, weight=5.0)])
        assert key(m._star_cell) == (5, 5)
        # cells created in rank order (1,1), (4,4), (2,2); all c.w = 1
        tied = [
            SpatialObject(x=15.0, y=15.0, weight=1.0),
            SpatialObject(x=45.0, y=45.0, weight=1.0),
            SpatialObject(x=25.0, y=25.0, weight=1.0),
        ]
        m.update(tied)
        # the fourth arrival expires s*; its cell's bound is 0
        result = m.update([SpatialObject(x=75.0, y=75.0, weight=0.0)])
        assert key(m._star_cell) == (4, 4)
        assert result.best.anchor_oid == tied[1].oid
        assert result.best_weight == 1.0
        m.check_invariants()


class TestOrderInvariant:
    def _monitor(self):
        m = AG2Monitor(2.0, 2.0, CountWindow(10), cell_size=10.0)
        m.update([SpatialObject(x=15.0 + 10 * i, y=15.0) for i in range(4)])
        m.check_invariants()
        return m

    def test_missing_entry_is_a_violation(self):
        m = self._monitor()
        m._cells.clear_heap()
        with pytest.raises(InvariantViolationError, match="candidate-order"):
            m.check_invariants()

    def test_entry_at_a_stale_bound_is_a_violation(self):
        m = self._monitor()
        m._cells.cw[m._cells.ids()[0]] += 1.0
        with pytest.raises(InvariantViolationError, match="candidate-order"):
            m.check_invariants()
