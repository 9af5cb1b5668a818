"""Tests for the push-only engine (the one fan-out over monitors) and
timing statistics.

The engine counts in plain attributes (``batches``, ``timings``,
``enospc_recoveries``); ``process`` returns each monitor's answer.
More engine checks are in ``tests/test_soak.py`` (``TestEngineSession``);
the WAL and checkpoint sequence in ``tests/test_wal_recovery.py``."""

from __future__ import annotations

import warnings

import pytest

from repro.bench import ExperimentConfig, build_monitor, measure
from repro.core.ag2 import AG2Monitor
from repro.core.naive import NaiveMonitor
from repro.datasets import registry
from repro.engine import StreamEngine, TimingStats
from repro.errors import EmptyWindowError, InvalidParameterError
from repro.streams import ReplayStream, UniformStream
from repro.window import CountWindow


def engine(batch_size=10, capacity=50, monitors=None) -> StreamEngine:
    monitors = monitors or {
        "ag2": AG2Monitor(20, 20, CountWindow(capacity)),
    }
    return StreamEngine(monitors, [], batch_size=batch_size)


def batches(count, batch_size=10, seed=1):
    """``count`` consecutive batches of one seeded uniform stream."""
    objects = UniformStream(domain=200.0, seed=seed).take(count * batch_size)
    return [
        objects[i : i + batch_size]
        for i in range(0, len(objects), batch_size)
    ]


def processed(e, count, seed=1):
    """Push ``count`` batches through ``e``; return the last answers."""
    for batch in batches(count, e.batch_size, seed):
        results = e.process(batch)
    return results


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
            StreamEngine({}, [], 10)
        with pytest.raises(InvalidParameterError):
            engine(batch_size=0)

    def test_prime_fills_window_untimed(self):
        """A caller fills the window through ``ingest``; the engine
        times only the batches pushed through ``process``."""
        e = engine(capacity=30)
        monitor = e.monitors["ag2"]
        prime, batch = batches(2, batch_size=30)
        monitor.ingest(prime)
        assert len(monitor.window) == 30
        e.process(batch)
        assert e.batches == 1
        assert len(e.timings["ag2"]) == 1

    def test_process_produces_timings(self):
        e = engine()
        results = processed(e, 4)
        assert e.batches == 4
        assert len(e.timings["ag2"]) == 4
        assert e.timings["ag2"].mean_ms > 0
        assert not results["ag2"].is_empty
        assert results["ag2"] is e.monitors["ag2"].result

    def test_monitors_see_identical_batches(self):
        mons = {
            "a": AG2Monitor(20, 20, CountWindow(40)),
            "b": NaiveMonitor(20, 20, CountWindow(40)),
        }
        e = engine(monitors=mons)
        results = processed(e, 9)
        assert results["a"].best_weight == pytest.approx(
            results["b"].best_weight
        )
        assert e.batches == 9
        assert [len(t) for t in e.timings.values()] == [9, 9]
        assert (
            e.monitors["a"].window.contents == e.monitors["b"].window.contents
        )

    def test_run_stops_on_exhausted_source(self):
        """A finite source that runs dry mid-batch ends on a short final
        batch; the engine counts the batches that arrived."""
        e = StreamEngine({"m": NaiveMonitor(5, 5, CountWindow(10))}, [], 10)
        objects = UniformStream(domain=50.0, seed=2).take(15)
        for start in range(0, len(objects), e.batch_size):
            e.process(objects[start : start + e.batch_size])
        assert e.batches == 2  # 10 + 5, then exhausted
        assert len(e.timings["m"]) == 2
        assert len(e.monitors["m"].window) == 10

    def test_run_validation(self):
        """An empty batch is rejected and counts nothing."""
        e = engine()
        with pytest.raises(InvalidParameterError, match="non-empty"):
            e.process([])
        assert e.batches == 0
        assert len(e.timings["ag2"]) == 0

    def test_source_slot_is_ignored(self):
        """The second positional argument is kept for old call sites
        and never read: batches come only through ``process``."""
        e = StreamEngine(
            {"ag2": AG2Monitor(20, 20, CountWindow(50))},
            UniformStream(domain=200.0, seed=1),
            10,
        )
        assert e.batches == 0
        assert len(e.monitors["ag2"].window) == 0


class TestSourceExhaustion:
    """A finite source long enough for the whole run is never flagged;
    one too short raises from ``measure`` (``tests/test_bench.py``)."""

    def test_full_run_is_not_flagged(self, monkeypatch):
        objects = UniformStream(domain=50.0, seed=2).take(100)
        monkeypatch.setitem(
            registry._REGISTRY,
            "finite_100",
            lambda domain, seed, weight_max: ReplayStream(objects),
        )
        # 20 fill + (2 turnover + 3 timed) * 10 = 70 of the 100 objects
        cfg = ExperimentConfig(
            dataset="finite_100", window_size=20, batch_size=10,
            rect_side=5.0, domain=50.0, batches=3,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            times, answers, counts = measure(
                cfg, lambda: {"m": build_monitor("naive", cfg)}
            )
        assert len(times["m"]) == len(answers["m"]) == len(counts["m"]) == 3
        assert [c["updates"] for c in counts["m"]] == [1, 1, 1]

