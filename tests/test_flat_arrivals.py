"""aG2's and G2's flat arrival path against the per-rectangle path it
replaced.

A batch is routed in one pass into the monitor's ``ArrivalTable``, a
cell's pending set is an ``array('q')`` of seqs, purging reads the
expired rows' cell covers, and a visited cell connects its whole
pending set in one ``CellGraph.connect`` call.  The reference monitors
below keep the earlier path: ``dual_rect`` + ``UniformGrid.cell_keys``
per arrival, a ``deque`` of ``(seq, WeightedRect)`` pending pairs, a
``(seq, key)`` expiry log and one ``connect`` per rectangle.  Answers
(to the bit), every ``MonitorStats`` field and every cell and vertex
bound must agree on every tick.
"""

from __future__ import annotations

import dataclasses
import gc
from array import array
from collections import deque
from heapq import heappush

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import connect_rect
from repro.core import planesweep
from repro.core.ag2 import AG2Monitor
from repro.core.g2 import G2Monitor, _G2Cell
from repro.core.graph import ArrivalTable, CellGraph
from repro.core.naive import NaiveMonitor
from repro.core.objects import SpatialObject, dual_rect
from repro.core.planesweep import local_plane_sweep_cached
from repro.core.spaces import region_key
from repro.core.topk import TopKAG2Monitor
from repro.datasets import make_stream
from repro.errors import InvalidGeometryError, InvariantViolationError
from repro.window import CountWindow, TimeWindow


class _PerRectArrivals:
    """The aG2 arrival path before flat arrays (mixed into aG2 and
    top-k): per-arrival ``WeightedRect`` and cell keys, deque pending
    sets, an expiry log, one ``connect`` per pending rectangle."""

    def _map_arrivals(self, delta):
        if not hasattr(self, "_log"):
            self._log = deque()
            self._seq = 0
        cells = self._cells
        touched = {}
        for obj in delta.arrived:
            seq = self._seq
            self._seq += 1
            wr = dual_rect(obj, self.rect_width, self.rect_height)
            for key in self.grid.cell_keys(wr.rect):
                cell = cells.get(key)
                if cell is None:
                    cell = self._make_cell()
                    cell.pending = deque()
                    cell.rank = self._next_cell_rank
                    self._next_cell_rank += 1
                    cells[key] = cell
                cell.pending.append((seq, wr))
                cell.cw += wr.weight
                touched[key] = cell
                self._log.append((seq, key))
        for key, cell in touched.items():
            heappush(self._order, (-cell.cw, cell.rank, key))

    def _purge_all(self):
        expired_upto = self._expired_upto
        if self._star is not None and self._star.seq <= expired_upto:
            self._clear_star()
        log = self._log
        touched = set()
        while log and log[0][0] <= expired_upto:
            touched.add(log.popleft()[1])
        for key in touched:
            cell = self._cells.get(key)
            if cell is None:
                continue
            graph = cell.graph
            removed = 0 if graph is None else graph.expire_upto(expired_upto)
            pending = cell.pending
            while pending and pending[0][0] <= expired_upto:
                pending.popleft()
            if not pending and not graph:
                del self._cells[key]
            elif removed:
                self._cell_purged(cell)

    def _overlap_computation(self, cell):
        stats = self.stats
        stats.cells_visited += 1
        if cell.graph is None:
            cell.graph = CellGraph()
        for seq, wr in cell.pending:
            stats.overlap_tests += len(cell.graph)
            stats.edges_touched += connect_rect(cell.graph, wr, seq)
        cell.pending.clear()
        cell.cw = cell.graph.max_upper()
        stats.upper_bound_recomputes += 1


class _PerRectAG2(_PerRectArrivals, AG2Monitor):
    pass


class _PerRectTopK(_PerRectArrivals, TopKAG2Monitor):
    pass


class _PerRectG2(G2Monitor):
    """G2 with the per-arrival ``dual_rect`` + ``cell_keys`` route."""

    def _on_delta(self, delta):
        if not hasattr(self, "_seq"):
            self._seq = 0
        self._expired_upto += len(delta.expired)
        stats = self.stats
        dirty = []
        hits = array("q")
        for obj in delta.arrived:
            seq = self._seq
            self._seq += 1
            wr = dual_rect(obj, self.rect_width, self.rect_height)
            for key in self.grid.cell_keys(wr.rect):
                cell = self._cells.get(key)
                if cell is None:
                    cell = self._cells[key] = _G2Cell()
                self._purge(cell)
                stats.cells_visited += 1
                graph = cell.graph
                stats.overlap_tests += len(graph)
                stats.edges_touched += connect_rect(graph, wr, seq, hits)
                cell.offer_best(len(graph.seqs) - 1)
                dirty.extend((cell, graph.base + i) for i in hits)
        for cell, pos in dirty:
            graph = cell.graph
            i = pos - graph.base
            if not graph.dirty[i]:
                continue
            graph.settle(i, local_plane_sweep_cached(graph.vertex(i)))
            stats.local_sweeps += 1
            cell.offer_best(i)


def _hex_answer(result):
    return [
        (reg.anchor_oid, *(float(v).hex() for v in (reg.weight, *region_key(reg))))
        for reg in result.regions
    ]


def _hex_bounds(monitor):
    """Every aG2 cell's ``c.w`` and live vertex bounds, as hex: float
    adds in another order would show here first."""
    if isinstance(monitor, G2Monitor):
        return None
    return {
        key: (
            cell.cw.hex(),
            None if cell.graph is None
            else [u.hex() for u in cell.graph.upper[cell.graph.head:]],
        )
        for key, cell in monitor._cells.items()
    }


def _batches(objs, splits):
    pos = 0
    for size in splits:
        if pos >= len(objs):
            return
        yield objs[pos : pos + size]
        pos += size
    if pos < len(objs):
        yield objs[pos:]


# tie-heavy: a coarse coordinate grid whose rectangles end on cell
# borders, and mostly equal weights, so bounds and answers tie; 0.1,
# 0.2 and 0.6 make sums depend on the order of their float adds
points = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=12).map(lambda v: 5.0 * v),
        st.integers(min_value=0, max_value=12).map(lambda v: 5.0 * v),
        st.sampled_from([1.0, 1.0, 1.0, 2.0, 0.0, 0.1, 0.2, 0.6]),
    ),
    max_size=80,
)


@pytest.mark.parametrize("kernel", ["compiled", "python"])
@settings(max_examples=100, deadline=None)
@given(
    points=points,
    splits=st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=15),
    size=st.integers(min_value=1, max_value=25),
    timed=st.booleans(),
    epsilon=st.sampled_from([0.0, 0.25]),
    side=st.sampled_from([4.0, 10.0]),
    cell_size=st.sampled_from([10.0, 25.0]),
)
def test_flat_path_equals_per_rectangle_path(
    kernel, points, splits, size, timed, epsilon, side, cell_size
):
    objs = [
        SpatialObject(x=x, y=y, weight=w, timestamp=float(i // 3))
        for i, (x, y, w) in enumerate(points)
    ]

    def window():
        return TimeWindow(float(size)) if timed else CountWindow(size)

    pairs = [
        (
            AG2Monitor(side, side, window(), cell_size=cell_size,
                       epsilon=epsilon),
            _PerRectAG2(side, side, window(), cell_size=cell_size,
                        epsilon=epsilon),
        ),
        (
            TopKAG2Monitor(side, side, window(), k=3, cell_size=cell_size),
            _PerRectTopK(side, side, window(), k=3, cell_size=cell_size),
        ),
        (
            G2Monitor(side, side, window(), cell_size=cell_size),
            _PerRectG2(side, side, window(), cell_size=cell_size),
        ),
    ]
    with pytest.MonkeyPatch.context() as mp:
        if kernel == "python":
            mp.setattr(planesweep, "_KERNEL", None)
        for tick, batch in enumerate(_batches(objs, splits)):
            for new, old in pairs:
                got = new.update(batch)
                want = old.update(batch)
                assert _hex_answer(got) == _hex_answer(want), (
                    f"{type(new).__name__} tick {tick}"
                )
                assert dataclasses.asdict(new.stats) == dataclasses.asdict(
                    old.stats
                ), f"{type(new).__name__} tick {tick}"
                assert _hex_bounds(new) == _hex_bounds(old)
                if hasattr(new, "check_invariants"):
                    new.check_invariants()


def _table(rows) -> ArrivalTable:
    """An arrival table of ``(x, y, w)`` rows: 10 × 10 rectangles."""
    table = ArrivalTable()
    for x, y, w in rows:
        table.rows.fromlist([x, y, x + 10.0, y + 10.0, w])
        table.cover.fromlist([0, -1, 0, -1])
        table.objs.append(SpatialObject(x=x + 5.0, y=y + 5.0, weight=w))
    return table


class TestConnect:
    def test_bounds_grow_in_arrival_order(self):
        """(0.1 + 0.2) + 0.6 and (0.1 + 0.6) + 0.2 differ in the last
        bit: one call must add in the order one call per row did."""
        table = _table([(0.0, 0.0, 0.1), (1.0, 1.0, 0.2), (2.0, 2.0, 0.6)])
        for kernel in ("compiled", "python"):
            with pytest.MonkeyPatch.context() as mp:
                if kernel == "python":
                    mp.setattr(planesweep, "_KERNEL", None)
                graph = CellGraph()
                graph.connect(table, array("q", [0]))
                hits = array("q")
                assert graph.connect(table, array("q", [1, 2]), hits) == 3
                assert list(hits) == [0, 0, 1]
                assert graph.upper[0] == (0.1 + 0.2) + 0.6
                assert graph.upper[0] != (0.1 + 0.6) + 0.2
                assert list(graph.seqs) == list(graph.marks) == [0, 1, 2]
                assert list(graph.dirty) == [1, 1, 0]

    @pytest.mark.parametrize("kernel", ["compiled", "python"])
    @settings(max_examples=100, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=6).map(lambda v: 4.0 * v),
                st.integers(min_value=0, max_value=6).map(lambda v: 4.0 * v),
                st.sampled_from([0.1, 0.2, 0.6, 1.0, 0.0]),
            ),
            min_size=1,
            max_size=24,
        ),
        cuts=st.lists(st.integers(min_value=0, max_value=24), max_size=4),
        expire=st.integers(min_value=-1, max_value=24),
    )
    def test_one_call_equals_one_connect_per_row(
        self, kernel, rows, cuts, expire
    ):
        """Pending sets connected in one call each leave every buffer,
        bound and flag, and report every edge, as connecting the rows
        one by one does; an expired prefix in between included."""
        table = _table(rows)
        n = len(rows)
        bounds = sorted({0, n, *(min(c, n) for c in cuts)})
        with pytest.MonkeyPatch.context() as mp:
            if kernel == "python":
                mp.setattr(planesweep, "_KERNEL", None)
            batched, single = CellGraph(), CellGraph()
            hits, one_hits, all_hits = array("q"), array("q"), []
            edges = single_edges = 0
            for lo, hi in zip(bounds, bounds[1:]):
                if lo == expire // 2:
                    batched.expire_upto(expire)
                    single.expire_upto(expire)
                edges += batched.connect(table, array("q", range(lo, hi)), hits)
                for seq in range(lo, hi):
                    single_edges += single.connect(
                        table, array("q", [seq]), one_hits
                    )
                    all_hits += [single.base + i for i in one_hits]
                assert [batched.base + i for i in hits] == all_hits
                all_hits.clear()
        assert edges == single_edges
        for name in ("items", "upper", "exact"):
            assert [v.hex() for v in getattr(batched, name)] == [
                v.hex() for v in getattr(single, name)
            ], name
        for name in ("seqs", "marks", "dirty", "objs", "head", "base"):
            assert getattr(batched, name) == getattr(single, name), name
        batched.check_invariants("batched")


class TestInvariants:
    def _monitor(self):
        m = AG2Monitor(10.0, 10.0, CountWindow(12))
        objs = [
            SpatialObject(x=5.0 * (i % 7), y=5.0 * (i % 5), weight=1.0)
            for i in range(40)
        ]
        for batch in _batches(objs, [5, 3, 7, 4, 6]):
            m.update(batch)
            m.check_invariants()
        return m

    def test_expired_pending_seq_is_caught(self):
        m = self._monitor()
        cell = next(iter(m._cells.values()))
        cell.pending.insert(0, m._expired_upto)
        with pytest.raises(InvariantViolationError, match="pending seq"):
            m.check_invariants()

    def test_unordered_pending_is_caught(self):
        m = self._monitor()
        m._map_arrivals(
            type("D", (), {"arrived": [SpatialObject(x=1.0, y=1.0)] * 2})()
        )
        cell = next(c for c in m._cells.values() if len(c.pending) == 2)
        cell.pending.reverse()
        with pytest.raises(InvariantViolationError, match="pending seq"):
            m.check_invariants()

    def test_table_retaining_an_expired_object_is_caught(self):
        m = self._monitor()
        table = m._table
        assert table.head > 0 or table.base > 0
        table.head -= 1
        if table.head < 0:  # compacted: a retained row is a base too low
            table.head = 0
            table.base -= 1
        with pytest.raises(InvariantViolationError, match="arrival table"):
            m.check_invariants()

    def test_table_length_mismatch_is_caught(self):
        m = self._monitor()
        m._table.cover.append(0)
        with pytest.raises(InvariantViolationError, match="cover ints"):
            m.check_invariants()


class TestRoute:
    @settings(max_examples=200, deadline=None)
    @given(
        # large coordinates make the thinnest rectangles degenerate
        x=st.floats(min_value=-1e12, max_value=1e12),
        y=st.floats(min_value=-1e12, max_value=1e12),
        side=st.sampled_from([1e-9, 0.1, 3.0, 10.0]),
        cell_size=st.sampled_from([0.3, 7.0, 20.0]),
    )
    def test_route_is_the_dual_transform_and_cell_keys(
        self, x, y, side, cell_size
    ):
        """Each row holds ``dual_rect``'s bounds and weight, and the
        cover spans exactly ``UniformGrid.cell_keys`` (degenerate
        rectangles included)."""
        monitor = AG2Monitor(side, side, CountWindow(4), cell_size=cell_size)
        obj = SpatialObject(x=x, y=y, weight=2.5)
        table = ArrivalTable()
        table.route([obj], side, side, monitor.grid)
        wr = dual_rect(obj, side, side)
        r = wr.rect
        assert list(table.rows) == [r.x1, r.y1, r.x2, r.y2, wr.weight]
        i0, i1, j0, j1 = table.cover
        keys = tuple(
            (i, j) for i in range(i0, i1 + 1) for j in range(j0, j1 + 1)
        )
        assert keys == monitor.grid.cell_keys(r)
        assert table.objs == [obj]

    @pytest.mark.parametrize("x", [1.7e308, -1.7e308])
    @pytest.mark.parametrize("make", [AG2Monitor, G2Monitor])
    def test_overflowing_dual_rect_raises_as_before(self, x, make):
        """A dual rectangle whose bound overflows to ±inf raises the
        ``InvalidGeometryError`` the dual transform raises, and the
        failed batch leaves no row behind."""
        obj = SpatialObject(x=x, y=0.0)
        with pytest.raises(InvalidGeometryError) as expected:
            dual_rect(obj, 1e308, 1.0)
        monitor = make(1e308, 1.0, CountWindow(4))
        with pytest.raises(InvalidGeometryError) as got:
            monitor.update([SpatialObject(x=0.0, y=0.0), obj])
        assert str(got.value) == str(expected.value)
        assert len(monitor._table) == 0


def _tracked_per_object(make, dataset: str, n: int) -> float:
    """GC-tracked objects a monitor and its window hold per window
    object after priming, the stream objects themselves included."""
    stream = iter(make_stream(dataset, seed=42))
    gc.collect()
    before = len(gc.get_objects())
    monitor = make(CountWindow(n))
    for _ in range(n // 100):
        monitor.ingest([next(stream) for _ in range(100)])
    gc.collect()
    tracked = (len(gc.get_objects()) - before) / n
    del monitor
    return tracked


@pytest.mark.parametrize(
    "dataset, n", [("synthetic", 10000), ("hotspot_static", 5000)]
)
def test_ag2_tracks_at_most_one_object_more_than_naive(dataset, n):
    """Naive holds each object's ``WeightedRect`` and ``Rect``; aG2's
    flat arrival path must hold at most one tracked object more per
    window object (measured: 2.4 against naive's 3.0 on synthetic,
    2.2 on hotspot_static)."""
    naive = _tracked_per_object(
        lambda w: NaiveMonitor(1000.0, 1000.0, w), dataset, n
    )
    ag2 = _tracked_per_object(
        lambda w: AG2Monitor(1000.0, 1000.0, w), dataset, n
    )
    assert ag2 <= naive + 1.0, (ag2, naive)
