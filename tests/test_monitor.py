"""Tests for the monitor base class contract and statistics."""

from __future__ import annotations

import dataclasses

import pytest

from conftest import make_objects
from repro.core.ag2 import AG2Monitor
from repro.core.monitor import MonitorStats
from repro.core.naive import NaiveMonitor
from repro.errors import InvalidParameterError
from repro.window import CountWindow


class TestMonitorContract:
    def test_rect_validation(self):
        with pytest.raises(InvalidParameterError):
            AG2Monitor(0, 10, CountWindow(5))
        with pytest.raises(InvalidParameterError):
            AG2Monitor(10, -1, CountWindow(5))

    def test_result_property_tracks_last_update(self):
        m = NaiveMonitor(10, 10, CountWindow(5))
        assert m.result.is_empty
        r1 = m.update(make_objects(2))
        assert m.result is r1
        r2 = m.update(make_objects(2, seed=1))
        assert m.result is r2

    def test_update_counts(self):
        m = AG2Monitor(10, 10, CountWindow(100))
        m.update(make_objects(5))
        m.update(make_objects(3, seed=2))
        assert m.stats.updates == 2
        assert m.stats.objects_seen == 8

    def test_ingest_equivalent_to_update_for_state(self):
        """After ingest, the next update answers as if everything had
        gone through update()."""
        objs = make_objects(20, seed=4, domain=50.0)
        a = AG2Monitor(10, 10, CountWindow(50))
        a.ingest(objs[:15])
        ra = a.update(objs[15:])
        b = AG2Monitor(10, 10, CountWindow(50))
        for pos in range(0, 20, 5):
            rb = b.update(objs[pos : pos + 5])
        assert ra.best_weight == pytest.approx(rb.best_weight)

    def test_apply_external_delta(self):
        m = NaiveMonitor(10, 10, CountWindow(5))
        window = m.window
        delta = window.push(make_objects(3))
        result = m.apply(delta)
        assert result.window_size == 3

    def test_rect_dimensions_can_differ(self):
        m = NaiveMonitor(4, 20, CountWindow(5))
        objs = make_objects(1, domain=50.0)
        result = m.update(objs)
        assert result.best.rect.width <= 4
        assert result.best.rect.height <= 20


class TestMonitorStats:
    def test_snapshot_is_independent(self):
        s = MonitorStats(local_sweeps=3)
        snap = s.snapshot()
        s.local_sweeps = 10
        assert snap.local_sweeps == 3

    def test_reset(self):
        s = MonitorStats(updates=5, overlap_tests=7, cells_pruned=2)
        s.reset()
        assert s.updates == 0
        assert s.overlap_tests == 0
        assert s.cells_pruned == 0

    def test_every_field_is_covered(self):
        # snapshot/reset/delta derive their field lists from the
        # dataclass, so a new counter cannot be forgotten in one of them
        names = [f.name for f in dataclasses.fields(MonitorStats)]
        s = MonitorStats(**{name: i + 1 for i, name in enumerate(names)})
        snap = s.snapshot()
        assert dataclasses.asdict(snap) == dataclasses.asdict(s)
        assert snap is not s
        delta = s.delta(MonitorStats())
        assert list(delta) == names
        assert delta == dataclasses.asdict(s)
        s.reset()
        assert dataclasses.asdict(s) == dict.fromkeys(names, 0)
