"""Tests for the maxrs-stream command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main

TINY = [
    "--window", "120", "--rate", "30", "--side", "2000",
    "--domain", "20000", "--batches", "2",
]


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_monitor_defaults(self):
        args = build_parser().parse_args(["monitor"])
        assert args.dataset == "synthetic"
        assert args.window == 10_000

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["monitor", "--dataset", "nope"])

    def test_sweep_parameter_restricted(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["sweep", "--parameter", "epsilon", "--values", "1"]
            )

    @pytest.mark.parametrize("command", ["chaos", "overload"])
    def test_folded_harness_subcommands_rejected(self, command):
        # both campaigns are soak scenarios now (smoke, overload_wall)
        with pytest.raises(SystemExit):
            build_parser().parse_args([command])


class TestMain:
    def test_monitor_command(self, capsys):
        assert main(["monitor", *TINY, "--algorithms", "ag2"]) == 0
        out = capsys.readouterr().out
        assert "ag2" in out and "mean_ms" in out

    def test_sweep_command(self, capsys):
        code = main(
            ["sweep", *TINY, "--parameter", "window_size", "--values", "60,120"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "window_size" in out and "60" in out

    def test_approx_command(self, capsys):
        assert main(["approx", *TINY, "--epsilons", "0,0.5"]) == 0
        out = capsys.readouterr().out
        assert "epsilon" in out and "mean_error" in out

    def test_topk_command(self, capsys):
        assert main(["topk", *TINY, "--ks", "1,2"]) == 0
        out = capsys.readouterr().out
        assert "k" in out and "naive" in out

    def test_ablation_command(self, capsys):
        assert main(["ablation", *TINY, "--datasets", "synthetic"]) == 0
        out = capsys.readouterr().out
        assert "mode" in out and "synthetic" in out

    def test_dataset_command_roundtrips(self, capsys, tmp_path):
        from repro.streams import CsvStream

        path = tmp_path / "sample.csv"
        code = main(
            [
                "dataset", "--dataset", "geolife_like", "--domain", "5000",
                "--count", "40", "--output", str(path),
            ]
        )
        assert code == 0
        assert "wrote 40 objects" in capsys.readouterr().out
        loaded = list(CsvStream(path))
        assert len(loaded) == 40
        assert all(0 <= o.x <= 5000 for o in loaded)


class TestSoakCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["soak"])
        assert args.scenario == "smoke"
        assert args.seed is None
        assert args.no_verify_checksum is False

    def test_list_scenarios(self, capsys):
        assert main(["soak", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("smoke", "dirty_overload", "crash_recovery",
                     "wal_recovery", "overload_wall"):
            assert name in out

    def test_smoke_scenario_passes(self, capsys, tmp_path):
        path = tmp_path / "soak.json"
        code = main(
            ["soak", "--scenario", "smoke",
             "--checkpoint-dir", str(tmp_path / "ckpts"),
             "--json", str(path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "soak [smoke]" in out
        assert "OK:" in out and "FAIL" not in out
        import json

        doc = json.loads(path.read_text())
        assert doc["soak_passed"] is True
        assert doc["scenario"] == "smoke"
        assert "phase_breakdown" in doc

    def test_corrupted_checkpoint_fails_without_checksums(self, capsys):
        code = main(
            ["soak", "--scenario", "crash_recovery", "--no-verify-checksum"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL:" in out
