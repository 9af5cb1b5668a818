"""Tests for the ``bench`` suite and the bench-mode perf gate.

Two acceptance properties are pinned here:

1. ``run_bench`` emits a well-formed document — every monitor × dataset
   row with positive throughput, naive's speedup exactly 1, and a
   multi-query scaling row when requested;
2. ``scripts/perf_gate.py --bench`` passes on a self-compare and
   demonstrably fails when a ≥15% kernel-speedup regression is injected
   into the current document.
"""

from __future__ import annotations

import copy
import importlib.util
import json
from pathlib import Path

import pytest

import repro.bench.bench as bench_mod
from repro.bench import (
    BENCH_DATASETS,
    BENCH_MONITORS,
    BenchProfile,
    bench_rows,
    run_bench,
    scaling_rows,
)
from repro.cli import main
from repro.errors import InvalidParameterError


def _load_perf_gate():
    path = Path(__file__).resolve().parent.parent / "scripts" / "perf_gate.py"
    spec = importlib.util.spec_from_file_location("perf_gate", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: seconds-not-minutes sizing, injected under the name "tiny"
TINY = BenchProfile(
    window_size=200,
    batch_size=40,
    batches=2,
    rect_side=1000.0,
    mq_queries=2,
    mq_workers=1,
    mq_window=150,
    mq_batch_size=30,
    mq_batches=2,
)


@pytest.fixture(scope="module")
def tiny_doc():
    original = bench_mod.PROFILES
    bench_mod.PROFILES = {**original, "tiny": TINY}
    try:
        return run_bench(seed=42, profiles=("tiny",), scaling=True)
    finally:
        bench_mod.PROFILES = original


class TestRunBench:
    def test_document_shape(self, tiny_doc):
        assert tiny_doc["schema"] == bench_mod.BENCH_SCHEMA
        assert tiny_doc["seed"] == 42
        assert tiny_doc["cpu_count"] >= 1
        rows = tiny_doc["profiles"]["tiny"]["rows"]
        seen = [(r["monitor"], r["dataset"]) for r in rows]
        expected = {(m, d) for m in BENCH_MONITORS for d in BENCH_DATASETS}
        expected |= {
            (m, d)
            for m in bench_mod.BENCH_SKEW_MONITORS
            for d in bench_mod.BENCH_SKEW_DATASETS
        }
        assert len(seen) == len(set(seen))
        assert set(seen) == expected
        for row in rows:
            assert row["ops_per_s"] > 0
            assert row["mean_ms"] > 0
            assert row["p95_ms"] > 0
            assert row["speedup_vs_naive"] > 0

    def test_rows_name_their_index(self, tiny_doc):
        rows = tiny_doc["profiles"]["tiny"]["rows"]
        indexes = {r["monitor"]: r["index"] for r in rows}
        assert indexes["naive"] == "none"
        assert indexes["ag2"] == "uniform-grid"
        assert indexes["ag2_quadtree"] == "quadtree"
        assert indexes["rtree"] == "rtree"

    def test_naive_speedup_is_exactly_one(self, tiny_doc):
        for row in tiny_doc["profiles"]["tiny"]["rows"]:
            if row["monitor"] == "naive":
                assert row["speedup_vs_naive"] == 1.0

    def test_scaling_row(self, tiny_doc):
        mq = tiny_doc["profiles"]["tiny"]["multi_query"]
        assert mq["queries"] == TINY.mq_queries
        assert mq["workers"] == TINY.mq_workers
        assert mq["serial_ms"] > 0
        assert mq["parallel_ms"] > 0
        assert mq["scaling"] > 0

    def test_flatteners(self, tiny_doc):
        rows = bench_rows(tiny_doc)
        expected = len(BENCH_MONITORS) * len(BENCH_DATASETS) + len(
            bench_mod.BENCH_SKEW_MONITORS
        ) * len(bench_mod.BENCH_SKEW_DATASETS)
        assert len(rows) == expected
        assert all(row["profile"] == "tiny" for row in rows)
        (mq,) = scaling_rows(tiny_doc)
        assert mq["profile"] == "tiny"

    def test_unknown_profile_rejected(self):
        with pytest.raises(InvalidParameterError):
            bench_mod.run_profile_suite("no-such-profile", seed=1)


def _fake_doc(ag2_speedup: float, cpu_count: int = 1) -> dict:
    """A hand-authored bench document the gate can index."""
    rows = [
        {"monitor": "naive", "dataset": "uniform", "speedup_vs_naive": 1.0},
        {"monitor": "g2", "dataset": "uniform", "speedup_vs_naive": 1.4},
        {"monitor": "ag2", "dataset": "uniform", "speedup_vs_naive": ag2_speedup},
        {"monitor": "rtree", "dataset": "uniform", "speedup_vs_naive": 1.3},
        {"monitor": "topk", "dataset": "uniform", "speedup_vs_naive": 1.8},
    ]
    return {
        "schema": 1,
        "seed": 42,
        "cpu_count": cpu_count,
        "profiles": {
            "quick": {
                "rows": copy.deepcopy(rows),
                "multi_query": {
                    "queries": 4,
                    "workers": 2,
                    "serial_ms": 100.0,
                    "parallel_ms": 120.0,
                    "scaling": 100.0 / 120.0,
                },
            }
        },
    }


def _fake_skew_doc(grid_speedup: float, quad_speedup: float) -> dict:
    """A document carrying both aG2 backends on a skewed dataset, so
    the adaptive-index advantage check has something to compare."""
    doc = _fake_doc(ag2_speedup=3.0)
    doc["profiles"]["quick"]["rows"] += [
        {
            "monitor": "naive",
            "dataset": "gauss_static",
            "backend": "none",
            "speedup_vs_naive": 1.0,
        },
        {
            "monitor": "ag2",
            "dataset": "gauss_static",
            "backend": "uniform-grid",
            "speedup_vs_naive": grid_speedup,
        },
        {
            "monitor": "ag2_quadtree",
            "dataset": "gauss_static",
            "backend": "quadtree",
            "speedup_vs_naive": quad_speedup,
        },
    ]
    return doc


class TestBenchGate:
    @pytest.fixture()
    def gate(self):
        return _load_perf_gate()

    @staticmethod
    def _write(tmp_path: Path, name: str, doc: dict) -> str:
        path = tmp_path / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    def test_self_compare_passes(self, gate, tmp_path):
        doc = _fake_doc(ag2_speedup=3.0)
        base = self._write(tmp_path, "base.json", doc)
        cur = self._write(tmp_path, "cur.json", doc)
        assert gate.check_bench(cur, base, tolerance=0.15) == []
        assert gate.main(["perf_gate.py", "--bench", cur, "--baseline", base]) == 0

    def test_injected_regression_fails(self, gate, tmp_path):
        base = self._write(tmp_path, "base.json", _fake_doc(ag2_speedup=3.0))
        # 20% drop > 15% tolerance: the gate must fail, naming the row
        cur = self._write(tmp_path, "cur.json", _fake_doc(ag2_speedup=2.4))
        failures = gate.check_bench(cur, base, tolerance=0.15)
        assert len(failures) == 1
        assert "ag2" in failures[0] and "uniform" in failures[0]
        assert gate.main(["perf_gate.py", "--bench", cur, "--baseline", base]) == 1

    def test_drop_within_tolerance_passes(self, gate, tmp_path):
        base = self._write(tmp_path, "base.json", _fake_doc(ag2_speedup=3.0))
        cur = self._write(tmp_path, "cur.json", _fake_doc(ag2_speedup=2.7))
        assert gate.check_bench(cur, base, tolerance=0.15) == []

    def test_missing_monitor_row_fails(self, gate, tmp_path):
        base = self._write(tmp_path, "base.json", _fake_doc(ag2_speedup=3.0))
        broken = _fake_doc(ag2_speedup=3.0)
        broken["profiles"]["quick"]["rows"] = [
            row
            for row in broken["profiles"]["quick"]["rows"]
            if row["monitor"] != "ag2"
        ]
        cur = self._write(tmp_path, "cur.json", broken)
        failures = gate.check_bench(cur, base, tolerance=0.15)
        assert any("bench row missing" in f for f in failures)

    def test_subset_of_profiles_is_fine(self, gate, tmp_path):
        """CI runs only `quick`; a baseline carrying `full` too must not
        trip the gate over the absent profile."""
        base_doc = _fake_doc(ag2_speedup=3.0)
        base_doc["profiles"]["full"] = copy.deepcopy(
            base_doc["profiles"]["quick"]
        )
        base = self._write(tmp_path, "base.json", base_doc)
        cur = self._write(tmp_path, "cur.json", _fake_doc(ag2_speedup=3.0))
        assert gate.check_bench(cur, base, tolerance=0.15) == []

    def test_scaling_gated_only_with_multiple_cpus(self, gate, tmp_path):
        base_doc = _fake_doc(ag2_speedup=3.0, cpu_count=4)
        base_doc["profiles"]["quick"]["multi_query"]["scaling"] = 1.7
        regressed = _fake_doc(ag2_speedup=3.0, cpu_count=4)
        regressed["profiles"]["quick"]["multi_query"]["scaling"] = 0.9
        base = self._write(tmp_path, "base.json", base_doc)
        cur = self._write(tmp_path, "cur.json", regressed)
        failures = gate.check_bench(cur, base, tolerance=0.15)
        assert any("scaling regression" in f for f in failures)
        # same regression on a 1-CPU current host carries no signal
        regressed["cpu_count"] = 1
        cur_single = self._write(tmp_path, "cur1.json", regressed)
        assert gate.check_bench(cur_single, base, tolerance=0.15) == []

    def test_regression_message_names_backend(self, gate, tmp_path):
        base = self._write(
            tmp_path, "base.json", _fake_skew_doc(2.0, 3.0)
        )
        regressed = _fake_skew_doc(2.0, 3.0)
        for row in regressed["profiles"]["quick"]["rows"]:
            if row["monitor"] == "ag2_quadtree":
                row["speedup_vs_naive"] = 1.0
        cur = self._write(tmp_path, "cur.json", regressed)
        failures = gate.check_bench(cur, base, tolerance=0.15)
        assert any(
            "ag2_quadtree [quadtree index]" in f
            for f in failures
        )

    def test_advantage_regression_fails(self, gate, tmp_path):
        """A regression the per-row floors cannot see: every row holds
        or improves, but the quadtree's edge over the grid collapses.
        Baseline advantage 3.0/2.0 = 1.50x, floor 1.50 * (1 - 2*0.15)
        = 1.05x; current 3.0/2.9 = 1.03x must fail."""
        base = self._write(
            tmp_path, "base.json", _fake_skew_doc(2.0, 3.0)
        )
        cur = self._write(tmp_path, "cur.json", _fake_skew_doc(2.9, 3.0))
        failures = gate.check_bench(cur, base, tolerance=0.15)
        assert any(
            "adaptive-index advantage regression" in f
            and "gauss_static" in f
            for f in failures
        )

    def test_advantage_within_tolerance_passes(self, gate, tmp_path):
        base = self._write(
            tmp_path, "base.json", _fake_skew_doc(2.0, 3.0)
        )
        cur = self._write(tmp_path, "cur.json", _fake_skew_doc(2.2, 3.0))
        assert gate.check_bench(cur, base, tolerance=0.15) == []

    def test_advantage_skipped_without_quadtree_rows(self, gate, tmp_path):
        """Legacy documents without ag2_quadtree rows must not trip the
        advantage check (they already pass the per-row gates)."""
        base = self._write(tmp_path, "base.json", _fake_doc(ag2_speedup=3.0))
        cur = self._write(tmp_path, "cur.json", _fake_doc(ag2_speedup=3.0))
        assert gate.check_bench(cur, base, tolerance=0.15) == []

    def test_disjoint_documents_fail_loudly(self, gate, tmp_path):
        base = self._write(tmp_path, "base.json", _fake_doc(ag2_speedup=3.0))
        other = _fake_doc(ag2_speedup=3.0)
        other["profiles"] = {"weird": other["profiles"].pop("quick")}
        cur = self._write(tmp_path, "cur.json", other)
        failures = gate.check_bench(cur, base, tolerance=0.15)
        assert any("zero rows" in f for f in failures)

    def test_bench_mode_needs_both_paths(self, gate, tmp_path):
        doc = self._write(tmp_path, "doc.json", _fake_doc(ag2_speedup=3.0))
        assert gate.main(["perf_gate.py", "--bench", doc]) == 2


class TestBenchCli:
    def test_cli_writes_document(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(
            bench_mod, "PROFILES", {**bench_mod.PROFILES, "quick": TINY}
        )
        out = tmp_path / "bench.json"
        rc = main(
            [
                "bench",
                "--profile",
                "quick",
                "--seed",
                "7",
                "--no-scaling",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["seed"] == 7
        assert "quick" in doc["profiles"]
        assert "multi_query" not in doc["profiles"]["quick"]
        printed = capsys.readouterr().out
        assert "speedup" in printed
