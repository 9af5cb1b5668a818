"""Unit tests for the aG2 branch-and-bound monitor (Algorithms 2-4)."""

from __future__ import annotations

import pytest

from conftest import make_objects
from repro.core.ag2 import AG2Monitor
from repro.core.naive import NaiveMonitor
from repro.core.objects import SpatialObject
from repro.errors import InvalidParameterError, InvariantViolationError
from repro.window import CountWindow, TimeWindow


def mk(capacity=50, side=10.0, **kw) -> AG2Monitor:
    return AG2Monitor(side, side, CountWindow(capacity), **kw)


class TestAG2Basics:
    def test_epsilon_validation(self):
        with pytest.raises(InvalidParameterError):
            mk(epsilon=-0.1)
        with pytest.raises(InvalidParameterError):
            mk(epsilon=1.0)

    def test_empty(self):
        m = mk()
        assert m.update([]).is_empty
        assert m.cell_count == 0
        assert m.pending_count == 0

    def test_single_object(self):
        m = mk()
        result = m.update([SpatialObject(x=5, y=5, weight=3.0)])
        assert result.best_weight == 3.0
        m.check_invariants()

    def test_matches_naive_over_stream(self):
        ag2 = mk(capacity=30)
        naive = NaiveMonitor(10, 10, CountWindow(30))
        for i in range(15):
            batch = make_objects(6, seed=200 + i, domain=70.0)
            a = ag2.update(batch)
            b = naive.update(batch)
            assert a.best_weight == pytest.approx(b.best_weight), f"batch {i}"
            ag2.check_invariants()

    def test_star_expiry_recovers(self):
        m = mk(capacity=2)
        m.update([SpatialObject(x=5, y=5, weight=9), SpatialObject(x=6, y=6, weight=9)])
        assert m.result.best_weight == 18.0
        result = m.update(
            [SpatialObject(x=80, y=80, weight=1), SpatialObject(x=81, y=81, weight=1)]
        )
        assert result.best_weight == 2.0
        m.check_invariants()

    def test_window_to_empty_and_back(self):
        m = AG2Monitor(10, 10, TimeWindow(1.0))
        m.update([SpatialObject(x=1, y=1, weight=5, timestamp=0.0)])
        assert m.result.best_weight == 5.0
        # everything expires with no replacement arrivals; the delta
        # must be applied to the monitor like any other
        result = m.apply(m.window.advance_to(10.0))
        assert result.is_empty
        m.update([SpatialObject(x=9, y=9, weight=2, timestamp=10.5)])
        assert m.result.best_weight == 2.0

    def test_pending_sets_drain_lazily(self):
        """Arrivals in a far-away light cell stay pending (pruned) until
        their cell bound matters."""
        m = mk(capacity=100, cell_size=20.0)
        # a heavy pair establishes a high threshold
        m.update([
            SpatialObject(x=5, y=5, weight=50),
            SpatialObject(x=6, y=6, weight=50),
        ])
        # light lone arrivals elsewhere should be prunable
        m.update([SpatialObject(x=500, y=500, weight=1)])
        assert m.result.best_weight == 100.0
        assert m.stats.cells_pruned >= 1
        m.check_invariants()

    def test_pruned_cell_revisited_when_threshold_drops(self):
        """Pending weight pruned under an old high threshold must be
        found when the heavy spaces expire."""
        m = mk(capacity=3, cell_size=20.0)
        m.update(
            [
                SpatialObject(x=5, y=5, weight=50),
                SpatialObject(x=6, y=6, weight=50),
                SpatialObject(x=500, y=500, weight=30),  # pruned for now
            ]
        )
        assert m.result.best_weight == 100.0
        # heavy pair expires; the previously pruned lone object must win
        result = m.update(
            [
                SpatialObject(x=900, y=900, weight=1),
                SpatialObject(x=950, y=950, weight=1),
            ]
        )
        assert result.best_weight == 30.0
        m.check_invariants()

    def test_prunes_more_than_it_sweeps(self):
        m = mk(capacity=200, side=5.0)
        for i in range(10):
            m.update(make_objects(20, seed=300 + i, domain=500.0))
        assert m.stats.cells_pruned > 0
        m.check_invariants()

    def test_fewer_sweeps_than_g2(self):
        """The whole point of aG2: strictly less Local-Plane-Sweep work
        on a non-trivial stream."""
        from repro.core.g2 import G2Monitor

        ag2 = mk(capacity=150)
        g2 = G2Monitor(10, 10, CountWindow(150))
        for i in range(10):
            batch = make_objects(15, seed=400 + i, domain=100.0)
            ag2.update(batch)
            g2.update(batch)
        assert ag2.stats.local_sweeps < g2.stats.local_sweeps

    def test_tie_keeps_current_star(self):
        m = mk()
        a = SpatialObject(x=5, y=5, weight=4.0)
        m.update([a])
        first_anchor = m.result.best.anchor_oid
        # an equal-weight lone object elsewhere must not displace s*
        m.update([SpatialObject(x=80, y=80, weight=4.0)])
        assert m.result.best.anchor_oid == first_anchor

    def test_zero_weight_stream(self):
        m = mk()
        result = m.update([SpatialObject(x=1, y=1, weight=0.0) for _ in range(5)])
        assert result.best_weight == 0.0
        assert not result.is_empty

    def test_stats_counters_move(self):
        m = mk(capacity=40)
        m.update(make_objects(40, seed=9, domain=60.0))
        s = m.stats
        assert s.updates == 1
        assert s.objects_seen == 40
        assert s.overlap_tests > 0
        assert s.local_sweeps > 0


class TestDirtyLifecycle:
    """The `dirty` flag must mean exactly "an overlapping rectangle
    arrived past the vertex's sweep watermark" — it drives the Rule-2
    resweep decision, so a stale flag would either skip a needed sweep
    (wrong answers) or redo provably identical work (the Property 3
    argument wasted)."""

    @staticmethod
    def _vertices(m: AG2Monitor):
        return [
            v for cell in m._cells.objs if cell is not None for v in cell.graph
        ]

    @classmethod
    def _assert_flag_consistent(cls, m: AG2Monitor) -> None:
        for v in cls._vertices(m):
            assert v.dirty == bool(v.fresh), (
                f"vertex seq={v.seq}: dirty={v.dirty} but "
                f"{len(v.fresh)} of {len(v.neighbors)} neighbours past "
                f"the watermark"
            )

    def test_dirty_tracks_unswept_edges_over_stream(self):
        m = mk(capacity=40)
        for i in range(20):
            m.update(make_objects(8, seed=400 + i, domain=60.0))
            self._assert_flag_consistent(m)
            m.check_invariants()

    def test_rule2_pruned_vertex_stays_dirty_and_wins_after_expiry(self):
        # one big cell so the light pair shares the (always visited)
        # start cell with the heavy pair, but their dual rects do not
        # overlap the heavies': Rule 2 prunes the light *vertices*
        # (bound 2 < 100) and they must stay dirty — never swept
        m = mk(capacity=6, side=4.0, cell_size=40.0)
        m.update(
            [
                SpatialObject(x=5, y=5, weight=50.0),
                SpatialObject(x=6, y=6, weight=50.0),
                SpatialObject(x=30, y=30, weight=1.0),
                SpatialObject(x=31, y=31, weight=1.0),
            ]
        )
        assert m.result.best_weight == 100.0
        light = [v for v in self._vertices(m) if v.wr.obj.x > 20]
        assert len(light) == 2, "light pair should have vertices"
        # edges live on the older endpoint: the older light vertex holds
        # the edge and must be dirty because Rule 2 pruned its sweep
        edged = [v for v in light if v.neighbors]
        assert edged, "expected the older light vertex to hold the edge"
        assert all(v.dirty for v in edged), "pruned vertices never swept"
        self._assert_flag_consistent(m)
        # expire the heavy pair: the dirty light pair must now be swept
        # exactly and win with its combined weight
        m.update(
            [
                SpatialObject(x=200, y=200, weight=0.1),
                SpatialObject(x=201, y=201, weight=0.1),
            ]
        )
        result = m.update(
            [
                SpatialObject(x=210, y=210, weight=0.1),
                SpatialObject(x=211, y=211, weight=0.1),
            ]
        )
        assert result.best_weight == 2.0
        self._assert_flag_consistent(m)
        m.check_invariants()


class TestFlatLayoutInvariants:
    """``check_invariants`` reads the cells' flat buffers: every way of
    corrupting one by hand is reported, never silently accepted."""

    @staticmethod
    def _monitor() -> AG2Monitor:
        # one big cell, so its buffer holds every vertex: some swept,
        # some left dirty by Rule 2
        m = mk(capacity=40, side=4.0, cell_size=1000.0)
        for i in range(4):
            batch = make_objects(10, seed=900 + i, domain=12.0)
            m.update(
                [SpatialObject(x=o.x + 20, y=o.y + 20, weight=o.weight)
                 for o in batch]
            )
        m.check_invariants()
        return m

    @staticmethod
    def _graph(m: AG2Monitor):
        (c,) = m._cells.ids()
        return m._cells.objs[c].graph

    def _corrupt(self, how) -> None:
        m = self._monitor()
        how(self._graph(m))
        with pytest.raises(InvariantViolationError):
            m.check_invariants()

    def test_uneven_arrays(self):
        self._corrupt(lambda g: g.upper.pop())

    def test_head_past_the_end(self):
        def past(g):
            g.head = len(g.seqs) + 1

        self._corrupt(past)

    def test_seqs_out_of_order(self):
        def swap(g):
            g.seqs[-1], g.seqs[-2] = g.seqs[-2], g.seqs[-1]

        self._corrupt(swap)

    def test_bound_below_space(self):
        def lower(g):
            g.upper[-1] = g.exact[-1] - 1.0

        self._corrupt(lower)

    def test_dirty_flag_without_fresh_edge(self):
        def flip(g):
            i = next(
                i for i in range(g.head, len(g.seqs)) if not g.dirty[i]
            )
            g.dirty[i] = 1

        self._corrupt(flip)

    def test_clean_flag_over_fresh_edge(self):
        def clear(g):
            i = next(i for i in range(g.head, len(g.seqs)) if g.dirty[i])
            g.dirty[i] = 0

        self._corrupt(clear)

    def test_watermark_moved_back(self):
        def rewind(g):
            i = next(
                i
                for i in range(g.head, len(g.seqs))
                if not g.dirty[i] and g.vertex(i).neighbors
            )
            g.marks[i] = g.seqs[i]

        self._corrupt(rewind)
