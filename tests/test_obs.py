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
    NullMetrics,
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


class TestMetricsRegistry:
    def test_instruments_are_get_or_create(self):
        m = Metrics()
        assert m.counter("a") is m.counter("a")
        assert m.counter("a") is not m.counter("b")

    def test_conveniences(self):
        m = Metrics()
        m.inc("n")
        m.inc("n", 2.5)
        assert m.counter("n").value == 3.5


class TestNullMetrics:
    def test_all_operations_are_noops(self):
        n = NullMetrics()
        n.inc("x", 100)
        n.counter("x").inc(10)
        assert n.counter("x").value == 0.0

    def test_shared_null_instruments_hold_no_state(self):
        a = NULL_METRICS.counter("a")
        b = NULL_METRICS.counter("b")
        assert a is b
        a.inc(1000)
        assert a.value == 0.0


class TestExport:
    ROWS = [
        {"monitor": "mon", "kind": "counter", "metric": "c", "value": 2},
        {"monitor": "mon", "kind": "timing", "metric": "mean_ms", "value": 3.0},
    ]

    def test_write_json(self, tmp_path):
        path = tmp_path / "m.json"
        write_metrics_json(str(path), {"mon": {"counters": {"c": 2.0}}})
        data = json.loads(path.read_text())
        assert data["mon"]["counters"]["c"] == 2.0

    def test_write_json_to_stream(self):
        buf = io.StringIO()
        write_metrics_json(buf, {"k": 1})
        assert json.loads(buf.getvalue()) == {"k": 1}

    def test_write_csv(self, tmp_path):
        path = tmp_path / "m.csv"
        write_metrics_csv(str(path), self.ROWS)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "monitor,kind,metric,value"
        assert lines[1:] == ["mon,counter,c,2", "mon,timing,mean_ms,3.0"]
