"""Live aG2 cell bounds: expired pending weight leaves the candidate order.

A cell's ``c.w`` is its bound at the last visit plus the weights of its
pending rows, added in row order.  Purge unlinks an expired row from
the front of each covered cell's pending list and marks the cell
stale; a stale cell whose heap entry reaches the root is re-keyed at
its live bound (``CellTable.top``).  So the bound-order loop tests Rule
1/3 on live bounds, never on weight that left the window, and visits
no cell that Rule 1/3 prunes on its live bound.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_kernel
from reference_kernel import use_reference
from repro.core.ag2 import AG2Monitor
from repro.core.cells import C_HEAD, C_STALE, CF, S_LBASE, S_LEND, S_LLIVE
from repro.core.naive import NaiveMonitor
from repro.core.objects import SpatialObject
from repro.datasets import make_stream
from repro.errors import InvariantViolationError
from repro.window import CountWindow, TimeWindow


class _Watched(AG2Monitor):
    """aG2 that checks, at each visit after the start cell's, that the
    cell's live bound passes Rule 1/3 against the answer held then."""

    def _on_delta(self, delta):
        self.first = True
        super()._on_delta(delta)

    def _visit(self, c):
        if self.first:
            self.first = False
        else:
            live = self._cells.live_bound(c)
            assert self._may_beat(live), (
                f"visited cell {self._cells.key(c)} with live bound {live}"
                f" against the answer {self._star_w} (epsilon "
                f"{self.epsilon})"
            )
        super()._visit(c)


def _batches(objs, splits):
    pos = 0
    for size in splits:
        if pos >= len(objs):
            return
        yield objs[pos:pos + size]
        pos += size
    if pos < len(objs):
        yield objs[pos:]


# a coarse grid of points over a few cells, so cells share rows, bounds
# tie, and expiry strands pending weight in cells that are not visited
points = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=12).map(lambda v: 5.0 * v),
        st.integers(min_value=0, max_value=12).map(lambda v: 5.0 * v),
        st.sampled_from([1.0, 1.0, 2.0, 5.0, 0.0, 0.1, 0.2, 0.6]),
    ),
    max_size=90,
)


@pytest.mark.parametrize("kernel", ["compiled", "python"])
@settings(max_examples=80, deadline=None)
@given(
    points=points,
    splits=st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=15),
    size=st.integers(min_value=1, max_value=25),
    timed=st.booleans(),
    epsilon=st.sampled_from([0.0, 0.25]),
    side=st.sampled_from([4.0, 10.0]),
    cell_size=st.sampled_from([10.0, 25.0]),
)
def test_bound_order_visits_only_cells_whose_live_bound_passes(
    kernel, points, splits, size, timed, epsilon, side, cell_size
):
    objs = [
        SpatialObject(x=x, y=y, weight=w, timestamp=float(i // 3))
        for i, (x, y, w) in enumerate(points)
    ]

    def window():
        return TimeWindow(float(size)) if timed else CountWindow(size)

    m = _Watched(side, side, window(), cell_size=cell_size, epsilon=epsilon)
    naive = NaiveMonitor(side, side, window())
    with pytest.MonkeyPatch.context() as mp:
        if kernel == "python":
            use_reference(mp)
        for batch in _batches(objs, splits):
            got = m.update(batch).best_weight
            want = naive.update(batch).best_weight
            if epsilon:
                assert got >= (1.0 - epsilon) * want
            else:
                assert got == want
            m.check_invariants()


def test_visits_per_batch_after_turnover_are_pinned():
    """``synthetic``, w = 2000, m = 100, seed 42: the most cells one
    batch visits over 300 batches after one window turnover.  Each
    visit is a cell whose live bound beats the answer; with bounds that
    kept expired weight the worst batch (the held answer expiring)
    visited 277 cells and the mean was 19.6."""
    it = iter(make_stream("synthetic", seed=42))
    m = AG2Monitor(1000.0, 1000.0, CountWindow(2000))
    for _ in range(20):
        m.update([next(it) for _ in range(100)])
    visits = []
    for _ in range(300):
        before = m.stats.cells_visited
        m.update([next(it) for _ in range(100)])
        visits.append(m.stats.cells_visited - before)
    assert max(visits) == 70
    assert sum(visits) == 2125
    m.check_invariants()


# -- the check of the new state ------------------------------------------------


def _primed() -> AG2Monitor:
    """A monitor whose cells hold pending rows, some of them stale."""
    m = AG2Monitor(10.0, 10.0, CountWindow(40), cell_size=20.0)
    objs = [
        SpatialObject(x=3.0 * (i % 23), y=4.0 * (i % 7), weight=0.1 * (i % 5))
        for i in range(160)
    ]
    for batch in _batches(objs, [9, 3, 11, 4, 6] * 8):
        m.update(batch)
        m.check_invariants()
    return m


def _cell_with_pending(m: AG2Monitor, stale: bool, where=None) -> int:
    cells = m._cells
    return next(
        c for c in cells.ids()
        if cells.pending(c)
        and bool(cells.meta[CF * c + C_STALE]) == stale
        and (where is None or where(cells, c))
    )


class TestCheck:
    def test_primed_monitor_has_stale_and_live_cells(self):
        m = _primed()
        _cell_with_pending(m, stale=True)
        _cell_with_pending(m, stale=False)

    def test_last_visit_bound_one_ulp_off_is_caught(self):
        """The sum is compared bit for bit: one ulp on the last-visit
        bound that shows in the sum is a violation."""

        def shows(cells, c):
            vb = cells.vb[c]
            cells.vb[c] = math.nextafter(vb, math.inf)
            moved = cells.live_bound(c) != cells.cw[c]
            cells.vb[c] = vb
            return moved

        m = _primed()
        c = _cell_with_pending(m, stale=False, where=shows)
        cells = m._cells
        cells.vb[c] = math.nextafter(cells.vb[c], math.inf)
        with pytest.raises(InvariantViolationError, match="last-visit bound"):
            m.check_invariants()

    def test_stale_bound_below_its_live_bound_is_caught(self):
        m = _primed()
        c = _cell_with_pending(
            m, stale=True,
            where=lambda cells, c: cells.cw[c] + 0.1 > cells.cw[c],
        )
        cells = m._cells
        cells.vb[c] = cells.cw[c] + 0.1  # now the live bound exceeds c.w
        with pytest.raises(InvariantViolationError, match="below its live"):
            m.check_invariants()

    def test_link_below_the_compacted_prefix_is_caught(self):
        m = _primed()
        cells = m._cells
        assert cells.state[S_LBASE] > 0, "the link table never compacted"
        c = _cell_with_pending(m, stale=False)
        cells.meta[CF * c + C_HEAD] = cells.state[S_LBASE] - 1
        with pytest.raises(InvariantViolationError, match="outside the link"):
            m.check_invariants()

    def test_link_weight_other_than_its_row_is_caught(self):
        m = _primed()
        c = _cell_with_pending(m, stale=False)
        cells = m._cells
        k = cells.meta[CF * c + C_HEAD] - cells.state[S_LBASE]
        cells.lw[k] += 1.0
        with pytest.raises(InvariantViolationError, match="link weights"):
            m.check_invariants()

    def test_first_live_link_out_of_step_is_caught(self):
        m = _primed()
        cells = m._cells
        assert cells.state[S_LLIVE] < cells.state[S_LEND]
        cells.state[S_LLIVE] += 1
        with pytest.raises(InvariantViolationError, match="first live link"):
            m.check_invariants()


def test_rekey_that_skips_the_newest_pending_row_is_caught(monkeypatch):
    """A kept mutant: the reference re-key leaves out the newest pending
    row.  The check (last-visit bound plus every pending weight, bit for
    bit) catches the low bound it writes."""

    def skip_newest(t, c):
        lbase = t.state[S_LBASE]
        s = t.vb[c]
        for k in reference_kernel._chain(t, c)[:-1]:
            s += t.lw[k - lbase]
        return s

    use_reference(monkeypatch)
    monkeypatch.setattr(reference_kernel, "_live_bound", skip_newest)
    m = AG2Monitor(10.0, 10.0, CountWindow(40), cell_size=20.0)
    objs = [
        SpatialObject(x=3.0 * (i % 23), y=4.0 * (i % 7), weight=1.0 + i % 5)
        for i in range(400)
    ]
    with pytest.raises(InvariantViolationError, match="last-visit bound"):
        for batch in _batches(objs, [9, 3, 11, 4, 6] * 20):
            m.update(batch)
            m.check_invariants()
