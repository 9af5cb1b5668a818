"""Tests for the continuous-query engine and timing statistics."""

from __future__ import annotations

import json
import warnings

import pytest

from repro.core.ag2 import AG2Monitor
from repro.core.naive import NaiveMonitor
from repro.engine import StreamEngine, TimingStats
from repro.errors import (
    EmptyWindowError,
    InvalidParameterError,
    StreamExhaustedWarning,
)
from repro.obs import Metrics, snapshots_from_dict
from repro.streams import UniformStream
from repro.window import CountWindow


def engine(batch_size=10, capacity=50, monitors=None) -> StreamEngine:
    monitors = monitors or {
        "ag2": AG2Monitor(20, 20, CountWindow(capacity)),
    }
    return StreamEngine(
        monitors, UniformStream(domain=200.0, seed=1), batch_size=batch_size
    )


class TestTimingStats:
    def test_empty_raises(self):
        stats = TimingStats()
        with pytest.raises(EmptyWindowError):
            _ = stats.mean

    def test_basic_statistics(self):
        stats = TimingStats()
        for s in (0.010, 0.020, 0.030, 0.040):
            stats.record(s)
        assert stats.mean == pytest.approx(0.025)
        assert stats.mean_ms == pytest.approx(25.0)
        assert stats.median == pytest.approx(0.025)
        assert stats.minimum == 0.010
        assert stats.maximum == 0.040
        assert stats.total == pytest.approx(0.100)
        assert len(stats) == 4

    def test_median_odd(self):
        stats = TimingStats(samples=[0.3, 0.1, 0.2])
        assert stats.median == pytest.approx(0.2)

    def test_percentiles(self):
        stats = TimingStats(samples=[float(i) for i in range(1, 101)])
        assert stats.percentile(0) == 1.0
        assert stats.percentile(100) == 100.0
        assert stats.percentile(50) == pytest.approx(50.5)

    def test_percentile_validation(self):
        stats = TimingStats(samples=[1.0])
        with pytest.raises(ValueError):
            stats.percentile(101)

    def test_stdev(self):
        stats = TimingStats(samples=[1.0, 3.0])
        assert stats.stdev == pytest.approx(2.0 ** 0.5)
        assert TimingStats(samples=[1.0]).stdev == 0.0

    def test_summary_keys(self):
        stats = TimingStats(samples=[0.001, 0.002])
        summary = stats.summary()
        assert set(summary) == {
            "updates", "mean_ms", "median_ms", "p95_ms",
            "min_ms", "max_ms", "total_ms",
        }


class TestStreamEngine:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            StreamEngine({}, UniformStream(seed=1), 10)
        with pytest.raises(InvalidParameterError):
            engine(batch_size=0)

    def test_prime_fills_window_untimed(self):
        e = engine(capacity=30)
        e.prime(30)
        monitor = e.monitors["ag2"]
        assert len(monitor.window) == 30

    def test_run_produces_timings(self):
        e = engine()
        e.prime(20)
        report = e.run(4)
        assert report.batches == 4
        assert len(report.timings["ag2"]) == 4
        assert report.mean_ms("ag2") > 0
        assert not report.final_results["ag2"].is_empty

    def test_monitors_see_identical_batches(self):
        mons = {
            "a": AG2Monitor(20, 20, CountWindow(40)),
            "b": NaiveMonitor(20, 20, CountWindow(40)),
        }
        e = engine(monitors=mons)
        e.prime(40)
        report = e.run(5)
        wa = report.final_results["a"].best_weight
        wb = report.final_results["b"].best_weight
        assert wa == pytest.approx(wb)

    def test_track_weights(self):
        e = engine()
        report = e.run(3, track_weights=True)
        assert len(report.weight_history["ag2"]) == 3

    def test_run_stops_on_exhausted_source(self):
        mons = {"m": NaiveMonitor(5, 5, CountWindow(10))}
        finite = iter(UniformStream(domain=50.0, seed=2).take(15))
        e = StreamEngine(mons, finite, batch_size=10)
        with pytest.warns(StreamExhaustedWarning):
            report = e.run(5)
        assert report.batches == 2  # 10 + 5, then exhausted

    def test_report_table_renders(self):
        e = engine()
        report = e.run(2)
        text = report.table()
        assert "ag2" in text and "mean ms" in text

    def test_run_validation(self):
        with pytest.raises(InvalidParameterError):
            engine().run(0)

    def test_prime_validation(self):
        with pytest.raises(InvalidParameterError):
            engine().prime(-1)


class TestSourceExhaustion:
    """A dry source must be surfaced, not silently absorbed (both paths)."""

    def _finite_engine(self, objects, batch_size=10):
        mons = {"m": NaiveMonitor(5, 5, CountWindow(50))}
        finite = iter(UniformStream(domain=50.0, seed=2).take(objects))
        return StreamEngine(mons, finite, batch_size=batch_size)

    def test_prime_short_fill_warns_and_reports_count(self):
        e = self._finite_engine(12)
        with pytest.warns(StreamExhaustedWarning, match="12 of 40"):
            primed = e.prime(40)
        assert primed == 12
        assert len(e.monitors["m"].window) == 12

    def test_prime_full_fill_is_silent(self):
        e = self._finite_engine(30)
        with warnings.catch_warnings():
            warnings.simplefilter("error", StreamExhaustedWarning)
            assert e.prime(20) == 20

    def test_run_exhaustion_sets_flag_and_warns(self):
        e = self._finite_engine(25)
        # 10 + 10 + a final partial batch of 5, then the source is dry
        with pytest.warns(StreamExhaustedWarning, match="3 of 5"):
            report = e.run(5)
        assert report.source_exhausted
        assert report.batches == 3
        assert report.requested_batches == 5

    def test_full_run_is_not_flagged(self):
        e = self._finite_engine(100)
        with warnings.catch_warnings():
            warnings.simplefilter("error", StreamExhaustedWarning)
            report = e.run(3)
        assert not report.source_exhausted
        assert report.batches == report.requested_batches == 3


class TestEngineMetrics:
    """Metrics wiring: scopes, per-batch deltas, export round-trip."""

    def _observed_engine(self):
        mons = {
            "ag2": AG2Monitor(20, 20, CountWindow(40)),
            "naive": NaiveMonitor(20, 20, CountWindow(40)),
        }
        registry = Metrics()
        e = StreamEngine(
            mons, UniformStream(domain=200.0, seed=3), 10, metrics=registry
        )
        return e, registry

    def test_report_carries_snapshots_per_monitor(self):
        e, _ = self._observed_engine()
        e.prime(40)
        report = e.run(3)
        assert set(report.metrics) == {"ag2", "naive"}
        # priming is one (untimed) ingest, then 3 timed updates
        assert report.metrics["ag2"].counters["updates"] == 4
        assert report.metrics["ag2"].counters["window.insertions"] == 70

    def test_update_ms_histogram_matches_batches(self):
        e, _ = self._observed_engine()
        report = e.run(4)
        for name in ("ag2", "naive"):
            assert report.metrics[name].histograms["update_ms"]["count"] == 4

    def test_batch_metrics_are_deltas(self):
        e, _ = self._observed_engine()
        e.prime(40)
        report = e.run(3)
        deltas = report.batch_metrics["naive"]
        assert len(deltas) == 3
        for snap in deltas:
            assert snap.counters["updates"] == 1
            assert snap.counters["full_sweeps"] == 1
        total = sum(s.counters["objects_swept"] for s in deltas)
        assert total == report.metrics["naive"].counters["objects_swept"]

    def test_without_registry_report_has_no_metrics(self):
        report = engine().run(2)
        assert report.metrics == {}
        assert report.batch_metrics == {}
        assert "no metrics recorded" in report.metrics_table()

    def test_to_dict_round_trip(self):
        e, _ = self._observed_engine()
        report = e.run(2)
        doc = json.loads(json.dumps(report.to_dict()))
        assert doc["batches"] == 2
        assert not doc["source_exhausted"]
        rebuilt = snapshots_from_dict(doc["metrics"])
        assert rebuilt == report.metrics
        assert len(doc["batch_metrics"]["ag2"]) == 2

    def test_metrics_table_renders_counters(self):
        e, _ = self._observed_engine()
        report = e.run(2)
        text = report.metrics_table(["updates", "cells_visited"])
        assert "updates" in text and "ag2" in text and "naive" in text
        assert "cells_visited" in report.counter_names()


class TestReportErrors:
    def test_unknown_monitor_names_the_attached_ones(self):
        report = engine().run(2)
        with pytest.raises(InvalidParameterError, match="report covers: ag2"):
            report.mean_ms("gg2")
        with pytest.raises(InvalidParameterError, match="'gg2'"):
            report.p95_ms("gg2")

    def test_empty_report_says_none(self):
        from repro.engine.engine import EngineReport

        report = EngineReport(
            batches=0, batch_size=1, timings={}, final_results={}
        )
        with pytest.raises(InvalidParameterError, match="<none>"):
            report.mean_ms("ag2")
