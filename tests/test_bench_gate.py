"""Tests for the ``bench`` suite and the bench-mode perf gate.

Two acceptance properties are pinned here:

1. ``run_bench`` emits a well-formed document — every monitor × dataset
   row with positive throughput and latency, and naive's speedup
   exactly 1;
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
    ExperimentConfig,
    bench_rows,
    run_bench,
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
TINY = ExperimentConfig(
    window_size=200,
    batch_size=40,
    batches=2,
    rect_side=1000.0,
)


@pytest.fixture(scope="module")
def tiny_doc():
    original = bench_mod.PROFILES
    bench_mod.PROFILES = {**original, "tiny": TINY}
    try:
        return run_bench(seed=42, profiles=("tiny",))
    finally:
        bench_mod.PROFILES = original


class TestRunBench:
    def test_document_shape(self, tiny_doc):
        assert tiny_doc["schema"] == bench_mod.BENCH_SCHEMA
        assert tiny_doc["seed"] == 42
        assert tiny_doc["cpu_count"] >= 1
        assert tiny_doc["sweep_kernel"] == "compiled"
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
            assert set(row) == {
                "monitor", "dataset", "ops_per_s", "mean_ms", "max_ms",
                "speedup_vs_naive",
            }
            assert row["ops_per_s"] > 0
            assert row["mean_ms"] > 0
            assert row["max_ms"] >= row["mean_ms"] > 0
            assert row["speedup_vs_naive"] > 0

    def test_naive_speedup_is_exactly_one(self, tiny_doc):
        for row in tiny_doc["profiles"]["tiny"]["rows"]:
            if row["monitor"] == "naive":
                assert row["speedup_vs_naive"] == 1.0

    def test_flatteners(self, tiny_doc):
        rows = bench_rows(tiny_doc)
        expected = len(BENCH_MONITORS) * len(BENCH_DATASETS) + len(
            bench_mod.BENCH_SKEW_MONITORS
        ) * len(bench_mod.BENCH_SKEW_DATASETS)
        assert len(rows) == expected
        assert all(row["profile"] == "tiny" for row in rows)

    def test_paper_profile_rows(self, monkeypatch):
        """The ``paper`` profile runs the paper's default sizing and
        exactly the :data:`PAPER_ROWS` matrix (here shrunk to TINY)."""
        paper = bench_mod.PROFILES["paper"]
        assert (paper.window_size, paper.batch_size, paper.rect_side,
                paper.domain) == (10_000, 100, 1000.0, 140_000.0)
        monkeypatch.setattr(
            bench_mod, "PROFILES", {**bench_mod.PROFILES, "paper": TINY}
        )
        rows = bench_mod.run_profile_suite("paper", seed=42)["rows"]
        assert [(r["dataset"], r["monitor"]) for r in rows] == [
            (dataset, monitor)
            for dataset, monitors in bench_mod.PAPER_ROWS.items()
            for monitor in monitors
        ]
        assert {r["dataset"] for r in rows if r["monitor"] == "g2"} == {
            "uniform"
        }

    def test_unknown_profile_rejected(self):
        with pytest.raises(InvalidParameterError):
            bench_mod.run_profile_suite("no-such-profile", seed=1)


def _fake_doc(ag2_speedup: float) -> dict:
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
        "cpu_count": 1,
        "profiles": {"quick": {"rows": copy.deepcopy(rows)}},
    }


def _fake_skew_doc(ag2_speedup: float) -> dict:
    """A document that also carries naive and aG2 on a skewed dataset,
    the way ``BENCH_SKEW_MONITORS`` runs them."""
    doc = _fake_doc(ag2_speedup=3.0)
    doc["profiles"]["quick"]["rows"] += [
        {
            "monitor": "naive",
            "dataset": "gauss_static",
            "speedup_vs_naive": 1.0,
        },
        {
            "monitor": "ag2",
            "dataset": "gauss_static",
            "speedup_vs_naive": ag2_speedup,
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

    def test_regression_message_names_backend(self, gate, tmp_path):
        """A regression on one skewed row fails that row alone, and the
        message names its monitor label, which names its one index."""
        base = self._write(tmp_path, "base.json", _fake_skew_doc(0.3))
        cur = self._write(tmp_path, "cur.json", _fake_skew_doc(0.2))
        failures = gate.check_bench(cur, base, tolerance=0.15)
        assert len(failures) == 1
        assert "ag2 on gauss_static (quick)" in failures[0]
        assert gate.main(["perf_gate.py", "--bench", cur, "--baseline", base]) == 1

    def test_disjoint_documents_fail_loudly(self, gate, tmp_path):
        base = self._write(tmp_path, "base.json", _fake_doc(ag2_speedup=3.0))
        other = _fake_doc(ag2_speedup=3.0)
        other["profiles"] = {"weird": other["profiles"].pop("quick")}
        cur = self._write(tmp_path, "cur.json", other)
        failures = gate.check_bench(cur, base, tolerance=0.15)
        assert any("zero rows" in f for f in failures)

    def test_kernel_mismatch_fails_with_a_clear_message(self, gate, tmp_path):
        """Identical speedups still fail when the kernels differ; a
        baseline without the field ran the Python tree."""
        compiled = _fake_doc(ag2_speedup=3.0)
        compiled["sweep_kernel"] = "compiled"
        legacy = _fake_doc(ag2_speedup=3.0)
        base = self._write(tmp_path, "base.json", legacy)
        cur = self._write(tmp_path, "cur.json", compiled)
        failures = gate.check_bench(cur, base, tolerance=0.15)
        assert len(failures) == 1
        assert "sweep kernel mismatch" in failures[0]
        assert "compiled" in failures[0] and "python" in failures[0]
        assert gate.main(["perf_gate.py", "--bench", cur, "--baseline", base]) == 1
        legacy["sweep_kernel"] = "python"
        same = self._write(tmp_path, "same.json", legacy)
        assert gate.check_bench(same, base, tolerance=0.15) == []

    def test_schema_mismatch_fails_with_a_clear_message(self, gate, tmp_path):
        """A baseline of another bench schema measured another loop:
        identical speedups still fail."""
        base = self._write(tmp_path, "base.json", _fake_doc(ag2_speedup=3.0))
        newer = _fake_doc(ag2_speedup=3.0)
        newer["schema"] = 2
        cur = self._write(tmp_path, "cur.json", newer)
        failures = gate.check_bench(cur, base, tolerance=0.15)
        assert len(failures) == 1
        assert "bench schema mismatch" in failures[0]
        assert gate.main(["perf_gate.py", "--bench", cur, "--baseline", base]) == 1

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
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["seed"] == 7
        assert set(doc["profiles"]) == {"quick"}
        assert set(doc["profiles"]["quick"]) == {
            "window_size", "batch_size", "batches", "repeats", "rows"
        }
        printed = capsys.readouterr().out
        assert "speedup" in printed
