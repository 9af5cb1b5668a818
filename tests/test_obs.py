"""Tests for the observability subsystem (repro.obs)."""

from __future__ import annotations

import io
import json

import pytest

from repro.errors import InvalidParameterError
from repro.obs import (
    NULL_METRICS,
    Counter,
    Histogram,
    Metrics,
    MetricsSnapshot,
    NullMetrics,
    snapshot_rows,
    snapshots_from_dict,
    snapshots_to_dict,
    write_metrics_csv,
    write_metrics_json,
)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        c = Counter("hits")
        assert c.value == 0.0
        c.inc()
        c.inc(2.5)
        assert c.value == pytest.approx(3.5)

    def test_negative_increment_rejected(self):
        c = Counter("hits")
        with pytest.raises(InvalidParameterError):
            c.inc(-1)

    def test_reset(self):
        c = Counter("hits")
        c.inc(7)
        c.reset()
        assert c.value == 0.0


class TestHistogram:
    def test_streaming_summary(self):
        h = Histogram("ms")
        for v in (1.0, 2.0, 3.0, 10.0):
            h.observe(v)
        assert h.count == 4
        assert h.total == pytest.approx(16.0)
        assert h.minimum == 1.0
        assert h.maximum == 10.0
        assert h.mean == pytest.approx(4.0)

    def test_empty_summary_is_zeroed(self):
        h = Histogram("ms")
        assert h.count == 0
        assert h.mean == 0.0
        assert h.minimum == 0.0
        assert h.maximum == 0.0

    def test_buckets_are_cumulative(self):
        h = Histogram("ms", buckets=(1.0, 5.0, 10.0))
        for v in (0.5, 1.0, 2.0, 7.0, 50.0):
            h.observe(v)
        s = h.summary()
        assert s["le_1"] == 2.0  # 0.5, 1.0 (upper bound inclusive)
        assert s["le_5"] == 3.0
        assert s["le_10"] == 4.0
        assert s["le_inf"] == 5.0

    def test_bucket_validation(self):
        with pytest.raises(InvalidParameterError):
            Histogram("ms", buckets=(5.0, 1.0))
        with pytest.raises(InvalidParameterError):
            Histogram("ms", buckets=(1.0, 1.0))

    def test_reset(self):
        h = Histogram("ms", buckets=(1.0,))
        h.observe(0.5)
        h.reset()
        assert h.count == 0
        assert h.summary()["le_1"] == 0.0


class TestMetricsRegistry:
    def test_instruments_are_get_or_create(self):
        m = Metrics()
        assert m.counter("a") is m.counter("a")
        assert m.histogram("h") is m.histogram("h")

    def test_scopes_nest_and_flatten(self):
        m = Metrics()
        m.scope("g2").inc("cells_visited", 3)
        m.scope("g2").scope("window").inc("insertions", 10)
        snap = m.snapshot()
        assert snap.counters["g2.cells_visited"] == 3.0
        assert snap.counters["g2.window.insertions"] == 10.0
        assert m.scope("g2") is m.scope("g2")

    def test_conveniences(self):
        m = Metrics()
        m.inc("n")
        m.observe("ms", 2.0)
        snap = m.snapshot()
        assert snap.counters["n"] == 1.0
        assert snap.histograms["ms"]["count"] == 1.0

    def test_reset_zeroes_but_keeps_structure(self):
        m = Metrics()
        m.scope("a").inc("x", 5)
        m.observe("h", 1.0)
        m.reset()
        snap = m.snapshot()
        assert snap.counters["a.x"] == 0.0
        assert snap.histograms["h"]["count"] == 0.0
        assert "a" in m.scopes()

    def test_enabled_flag(self):
        assert Metrics().enabled
        assert not NULL_METRICS.enabled


class TestSnapshotDelta:
    def test_counter_and_histogram_delta(self):
        m = Metrics()
        m.inc("c", 5)
        m.observe("h", 2.0)
        before = m.snapshot()
        m.inc("c", 3)
        m.observe("h", 4.0)
        delta = m.snapshot().delta(before)
        assert delta.counters["c"] == 3.0
        assert delta.histograms["h"]["count"] == 1.0
        assert delta.histograms["h"]["sum"] == pytest.approx(4.0)
        # min/max/mean are not delta-recoverable and must be omitted
        assert "mean" not in delta.histograms["h"]

    def test_new_counter_delta_from_zero(self):
        m = Metrics()
        before = m.snapshot()
        m.inc("fresh", 2)
        delta = m.snapshot().delta(before)
        assert delta.counters["fresh"] == 2.0


class TestNullMetrics:
    def test_all_operations_are_noops(self):
        n = NullMetrics()
        n.inc("x", 100)
        n.observe("h", 1.0)
        n.counter("x").inc(10)
        n.histogram("h").observe(2.0)
        snap = n.snapshot()
        assert snap.counters == {}
        assert snap.histograms == {}

    def test_scope_returns_self(self):
        assert NULL_METRICS.scope("anything") is NULL_METRICS

    def test_shared_null_instruments_hold_no_state(self):
        a = NULL_METRICS.counter("a")
        b = NULL_METRICS.counter("b")
        assert a is b
        a.inc(1000)
        assert a.value == 0.0


class TestSnapshotRoundTrip:
    def test_json_round_trip(self):
        m = Metrics()
        m.scope("mon").inc("c", 4)
        m.scope("mon").observe("h", 1.5)
        snap = m.snapshot()
        rebuilt = MetricsSnapshot.from_dict(
            json.loads(json.dumps(snap.to_dict()))
        )
        assert rebuilt == snap

    def test_snapshots_mapping_round_trip(self):
        m1, m2 = Metrics(), Metrics()
        m1.inc("a", 1)
        m2.inc("b", 2)
        snaps = {"x": m1.snapshot(), "y": m2.snapshot()}
        doc = json.loads(json.dumps(snapshots_to_dict(snaps)))
        assert snapshots_from_dict(doc) == snaps


class TestExport:
    def _snaps(self):
        m = Metrics()
        m.inc("c", 2)
        m.observe("h", 3.0)
        return {"mon": m.snapshot()}

    def test_snapshot_rows_flatten_everything(self):
        rows = snapshot_rows(self._snaps())
        kinds = {(r["kind"], r["metric"]) for r in rows}
        assert ("counter", "c") in kinds
        assert ("histogram", "h.count") in kinds

    def test_write_json(self, tmp_path):
        path = tmp_path / "m.json"
        write_metrics_json(str(path), snapshots_to_dict(self._snaps()))
        data = json.loads(path.read_text())
        assert data["mon"]["counters"]["c"] == 2.0

    def test_write_json_to_stream(self):
        buf = io.StringIO()
        write_metrics_json(buf, {"k": 1})
        assert json.loads(buf.getvalue()) == {"k": 1}

    def test_write_csv(self, tmp_path):
        path = tmp_path / "m.csv"
        write_metrics_csv(str(path), self._snaps())
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "monitor,kind,metric,value"
        assert any(line.startswith("mon,counter,c,") for line in lines)
