"""Tests for the profiling runner, the profile CLI and the CI perf gate.

These pin the acceptance property of the observability layer: on a
fixed-seed workload the aG2 branch-and-bound monitor must visit fewer
cells than G2 and record nonzero prunings — the same check
``scripts/perf_gate.py`` enforces in CI.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.bench import ExperimentConfig, build_monitor, run_profile
from repro.cli import main
from repro.datasets import make_stream

#: small fixed-seed workload — seconds, not minutes
TINY = ExperimentConfig(
    dataset="synthetic", window_size=500, batch_size=50, batches=3, seed=7
)


def _load_perf_gate():
    path = Path(__file__).resolve().parent.parent / "scripts" / "perf_gate.py"
    spec = importlib.util.spec_from_file_location("perf_gate", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def profile():
    return run_profile(TINY, ("naive", "g2", "ag2"))


class TestRunProfile:
    def test_ag2_prunes_what_g2_pays_for(self, profile):
        g2 = profile.counters("g2")
        ag2 = profile.counters("ag2")
        assert ag2["cells_visited"] < g2["cells_visited"]
        assert ag2["cells_pruned"] > 0

    def test_summary_rows_one_per_monitor(self, profile):
        rows = profile.summary_rows()
        assert [row["monitor"] for row in rows] == ["naive", "g2", "ag2"]
        for row in rows:
            assert row["mean_ms"] > 0

    def test_naive_counters(self, profile):
        naive = profile.counters("naive")
        assert naive["full_sweeps"] == TINY.batches
        assert naive["objects_swept"] == TINY.window_size * TINY.batches

    def test_per_batch_rows_cover_all_batches(self, profile):
        rows = profile.per_batch_rows()
        assert len(rows) == TINY.batches * 3
        first = [row for row in rows if row["batch"] == 1]
        assert {row["monitor"] for row in first} == {"naive", "g2", "ag2"}

    def test_window_counters_reach_the_profile(self, profile):
        ag2 = profile.counters("ag2")
        # the window is full and turned over: every timed arrival
        # expires one object
        assert ag2["objects_seen"] == TINY.batch_size * TINY.batches
        assert ag2["objects_expired"] == TINY.batch_size * TINY.batches
        assert ag2["updates"] == TINY.batches

    def test_to_dict_json_round_trip(self, profile):
        doc = json.loads(json.dumps(profile.to_dict()))
        for name in ("naive", "g2", "ag2"):
            assert doc["metrics"][name]["counters"] == profile.counters(name)
            assert [b["counters"] for b in doc["batch_metrics"][name]] == (
                profile.counts[name]
            )
            assert doc["timings"][name]["updates"] == TINY.batches
        assert doc["config"]["seed"] == TINY.seed
        assert doc["batches"] == TINY.batches

    def test_counts_replay_after_one_turnover(self, profile):
        """The protocol: fill, one full window turnover untimed, then
        the timed batches.  A replay of that protocol on fresh monitors
        shows, batch by batch, the ``stats`` increases the profile
        reports, and they sum to each monitor's increase over the timed
        batches."""
        turnover = -(-TINY.window_size // TINY.batch_size)
        stream = make_stream(TINY.dataset, domain=TINY.domain, seed=TINY.seed)
        objects = stream.take(
            TINY.window_size + (turnover + TINY.batches) * TINY.batch_size
        )
        batches = [
            objects[i : i + TINY.batch_size]
            for i in range(TINY.window_size, len(objects), TINY.batch_size)
        ]
        for name in ("naive", "g2", "ag2"):
            monitor = build_monitor(name, TINY)
            monitor.ingest(objects[: TINY.window_size])
            for batch in batches[:turnover]:
                monitor.update(batch)
            start = monitor.stats.snapshot()
            expected = []
            for batch in batches[turnover:]:
                before = monitor.stats.snapshot()
                monitor.update(batch)
                expected.append(monitor.stats.delta(before))
            assert profile.counts[name] == expected
            assert profile.counters(name) == monitor.stats.delta(start)


class TestPerfGate:
    def test_gate_passes_on_real_profile(self, profile, tmp_path):
        gate = _load_perf_gate()
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps(profile.to_dict()))
        assert gate.check(str(path)) == []
        assert gate.main(["perf_gate.py", str(path)]) == 0

    def test_gate_fails_on_pruning_regression(self, profile, tmp_path):
        gate = _load_perf_gate()
        doc = profile.to_dict()
        counters = doc["metrics"]["ag2"]["counters"]
        counters["cells_visited"] = (
            doc["metrics"]["g2"]["counters"]["cells_visited"] + 1
        )
        counters["cells_pruned"] = 0
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps(doc))
        failures = gate.check(str(path))
        assert len(failures) == 2
        assert any("regression" in f for f in failures)

    def test_gate_fails_on_missing_monitor(self, tmp_path):
        gate = _load_perf_gate()
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps({"metrics": {}}))
        assert gate.check(str(path))


class TestProfileCLI:
    def test_prints_counters_and_exports(self, capsys, tmp_path):
        json_path = tmp_path / "m.json"
        csv_path = tmp_path / "m.csv"
        code = main(
            [
                "profile",
                "--window", "500",
                "--rate", "50",
                "--batches", "3",
                "--seed", "7",
                "--json", str(json_path),
                "--csv", str(csv_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cells_visited" in out
        assert "cells_pruned" in out
        data = json.loads(json_path.read_text())
        assert "ag2" in data["metrics"]
        assert csv_path.read_text().startswith("monitor,kind,metric,value")

    def test_per_batch_table(self, capsys):
        code = main(
            [
                "profile",
                "--window", "300",
                "--rate", "50",
                "--batches", "2",
                "--algorithms", "ag2",
                "--per-batch",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "per-batch deltas" in out


class TestDerivedRates:
    def test_rows_cover_every_batch_and_monitor(self, profile):
        rows = profile.rate_rows()
        assert len(rows) == TINY.batches * 3
        assert {row["monitor"] for row in rows} == {"naive", "g2", "ag2"}

    def test_rates_are_normalised_and_bounded(self, profile):
        for row in profile.rate_rows():
            assert 0.0 <= row["prune_fraction"] <= 1.0
            assert row["sweeps_per_arrival"] >= 0.0
            assert row["overlap_tests_per_arrival"] >= 0.0

    def test_naive_sweeps_once_per_batch(self, profile):
        naive = [r for r in profile.rate_rows() if r["monitor"] == "naive"]
        for row in naive:
            # one full sweep per update, whatever the batch size
            assert row["sweeps_per_arrival"] == 1.0 / TINY.batch_size
            assert row["prune_fraction"] == 0.0

    def test_ag2_prunes_a_positive_fraction(self, profile):
        ag2 = [r for r in profile.rate_rows() if r["monitor"] == "ag2"]
        assert any(row["prune_fraction"] > 0.0 for row in ag2)

    def test_rates_embedded_in_json_artifact(self, profile):
        doc = json.loads(json.dumps(profile.to_dict()))
        assert doc["derived_rates"] == profile.rate_rows()

    def test_cli_rates_table(self, capsys):
        code = main(
            [
                "profile",
                "--window", "300",
                "--rate", "50",
                "--batches", "2",
                "--algorithms", "ag2",
                "--rates",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "per-batch derived rates" in out
        assert "prune_fraction" in out
