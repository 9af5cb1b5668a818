"""Tests for the benchmark harness (configs, the measurement loop,
runners, tables)."""

from __future__ import annotations

import pytest

from repro.bench import (
    ExperimentConfig,
    build_monitor,
    format_rows,
    format_table,
    measure,
    run_ablation,
    run_approx_sweep,
    run_config,
    run_sweep,
    run_topk_sweep,
    series_from_rows,
)
from repro.core.ag2 import AG2Monitor
from repro.core.g2 import G2Monitor
from repro.core.naive import NaiveMonitor
from repro.core.topk import TopKAG2Monitor
from repro.datasets import make_stream, registry
from repro.errors import InvalidParameterError, StreamExhaustedError
from repro.streams import ReplayStream
from repro.window import CountWindow

TINY = ExperimentConfig(
    window_size=150, batch_size=25, rect_side=2000.0,
    domain=20_000.0, batches=2, seed=1,
)


class TestConfig:
    def test_defaults_are_paper_scaled(self):
        cfg = ExperimentConfig()
        assert cfg.window_size == 10_000
        assert cfg.rect_side == 1000.0

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            ExperimentConfig(window_size=0)
        with pytest.raises(InvalidParameterError):
            ExperimentConfig(batches=0)
        with pytest.raises(InvalidParameterError):
            ExperimentConfig(repeats=0)

    def test_with_copies(self):
        cfg = TINY.with_(window_size=99)
        assert cfg.window_size == 99
        assert TINY.window_size == 150


class TestBuildMonitor:
    def test_algorithm_types(self):
        assert isinstance(build_monitor("naive", TINY), NaiveMonitor)
        assert isinstance(build_monitor("g2", TINY), G2Monitor)
        assert isinstance(build_monitor("ag2", TINY), AG2Monitor)

    def test_topk_variant(self):
        monitor = build_monitor("ag2", TINY.with_(k=5))
        assert isinstance(monitor, TopKAG2Monitor)
        assert monitor.k == 5

    def test_epsilon_passthrough(self):
        monitor = build_monitor("ag2", TINY.with_(epsilon=0.25))
        assert monitor.epsilon == 0.25

    def test_unknown_algorithm(self):
        with pytest.raises(InvalidParameterError):
            build_monitor("quadtree", TINY)


class _Recorder(NaiveMonitor):
    """Naive monitor logging every batch the measurement loop feeds it."""

    def __init__(self, cfg: ExperimentConfig) -> None:
        super().__init__(
            cfg.rect_side, cfg.rect_side, CountWindow(cfg.window_size)
        )
        self.fed: list[list] = []
        # per update call: (stats, oids in the window) as it began
        self.before: list[tuple] = []

    def ingest(self, objects):
        self.fed.append(list(objects))
        super().ingest(objects)

    def update(self, objects):
        self.fed.append(list(objects))
        self.before.append(
            (self.stats.snapshot(), {o.oid for o in self.window.contents})
        )
        return super().update(objects)


class TestMeasure:
    def test_one_pass_over_the_stream(self):
        """The fill, the turnover and the timed batches are consecutive,
        disjoint slices of one stream, the same in every round."""
        cfg = TINY.with_(repeats=2)
        rounds: list[_Recorder] = []

        def build():
            rounds.append(_Recorder(cfg))
            return {"rec": rounds[-1]}

        times, answers, counts = measure(cfg, build)
        turnover = -(-cfg.window_size // cfg.batch_size)
        sizes = [cfg.window_size] + [cfg.batch_size] * (turnover + cfg.batches)
        stream = make_stream(cfg.dataset, domain=cfg.domain, seed=cfg.seed)
        expected = [
            (o.x, o.y, o.weight, o.timestamp) for o in stream.take(sum(sizes))
        ]
        assert len(rounds) == 2
        for rec in rounds:
            assert [len(batch) for batch in rec.fed] == sizes
            fed = [o for batch in rec.fed for o in batch]
            oids = [o.oid for o in fed]
            assert all(a < b for a, b in zip(oids, oids[1:]))
            assert [(o.x, o.y, o.weight, o.timestamp) for o in fed] == expected
        assert len(times["rec"]) == len(answers["rec"]) == cfg.batches
        assert len(counts["rec"]) == cfg.batches
        assert all(t > 0 for t in times["rec"])

    def test_timing_starts_after_one_full_turnover(self):
        """No object of the window fill is left when the first timed
        batch arrives, and the last untimed batch still met some."""
        rounds: list[_Recorder] = []

        def build():
            rounds.append(_Recorder(TINY))
            return {"rec": rounds[-1]}

        measure(TINY, build)
        (rec,) = rounds
        primed = {o.oid for o in rec.fed[0]}
        seen = [oids & primed for _, oids in rec.before]
        assert len(seen) == -(-TINY.window_size // TINY.batch_size) + TINY.batches
        assert seen[-TINY.batches - 1]
        assert not any(seen[-TINY.batches:])

    def test_counts_are_the_timed_batches_stats_deltas(self):
        """Each timed batch's counts are the monitor's ``stats``
        increase over that batch alone, so they sum to the increase
        over the timed batches."""
        rounds: list[_Recorder] = []

        def build():
            rounds.append(_Recorder(TINY))
            return {"rec": rounds[-1]}

        _, _, counts = measure(TINY.with_(batches=4), build)
        (rec,) = rounds
        starts = [stats for stats, _ in rec.before[-4:]] + [rec.stats]
        assert counts["rec"] == [
            after.delta(before) for before, after in zip(starts, starts[1:])
        ]
        increase = rec.stats.delta(starts[0])
        for field, total in increase.items():
            assert sum(delta[field] for delta in counts["rec"]) == total
        assert increase["updates"] == 4 and increase["full_sweeps"] == 4

    @pytest.mark.parametrize(
        "window, needed", [(2000, 5000), (1000, 3000), (651, 2351)]
    )
    def test_short_stream_raises_naming_got_and_needed(
        self, monkeypatch, window, needed
    ):
        """A registered finite dataset too short for fill + turnover +
        timed batches is an error, raised before any monitor is built,
        never a shorter measurement."""
        objects = make_stream("synthetic", seed=3).take(2350)
        monkeypatch.setitem(
            registry._REGISTRY,
            "finite_2350",
            lambda domain, seed, weight_max: ReplayStream(objects),
        )
        cfg = ExperimentConfig(
            dataset="finite_2350", window_size=window, batch_size=100,
            batches=10,
        )
        with pytest.raises(
            StreamExhaustedError, match=f"got 2350 of the {needed} objects"
        ):
            measure(cfg, pytest.fail)
        # 650 + (7 turnover + 10 timed) * 100 is exactly 2350
        fits = cfg.with_(window_size=650)
        times, _, _ = measure(
            fits, lambda: {"naive": build_monitor("naive", fits)}
        )
        assert len(times["naive"]) == 10


class TestRunners:
    def test_run_config(self):
        times = run_config(TINY, ("naive", "ag2"))
        assert set(times) == {"naive", "ag2"}
        assert all(v >= 0 for v in times.values())

    def test_run_sweep_rows(self):
        rows = run_sweep(
            TINY, "window_size", (80, 160), algorithms=("ag2",)
        )
        assert [row["window_size"] for row in rows] == [80, 160]
        assert all("ag2" in row for row in rows)

    def test_run_approx_sweep(self):
        rows = run_approx_sweep(TINY, (0.0, 0.5))
        assert len(rows) == 2
        for row in rows:
            assert row["mean_error"] <= row["epsilon"] + 1e-9
            assert row["max_error"] <= row["epsilon"] + 1e-9

    def test_run_topk_sweep(self):
        rows = run_topk_sweep(TINY, (1, 3))
        assert [row["k"] for row in rows] == [1, 3]
        assert all(row["naive"] >= 0 and row["ag2"] >= 0 for row in rows)

    def test_run_ablation(self):
        rows = run_ablation(TINY, ("synthetic",), modes=("off", "always"))
        assert [row["mode"] for row in rows] == ["off", "always"]
        assert all("synthetic" in row for row in rows)


class TestTables:
    def test_format_table(self):
        text = format_table(["a", "b"], [[1, 2.5], [10, 0.001]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        # title + header + rule + 2 data rows
        assert len(lines) == 5

    def test_format_rows(self):
        text = format_rows([{"x": 1, "y": 2}, {"x": 3, "y": 4}])
        assert "x" in text and "3" in text

    def test_format_rows_empty(self):
        assert format_rows([], title="empty") == "empty"

    def test_series_from_rows(self):
        rows = [{"n": 1, "ms": 5.0}, {"n": 2, "ms": 7.0}]
        assert series_from_rows(rows, "n", "ms") == [(1, 5.0), (2, 7.0)]
