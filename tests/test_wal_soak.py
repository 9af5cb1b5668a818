"""End-to-end durability acceptance: the committed ``wal_recovery``
scenario and its CLI surfaces.

The scenario damages the log itself: a mid-burst crash with a torn WAL
tail and a bit-flipped old record, a kill mid-append, an ENOSPC burst
— and every recovery must still re-converge exactly from checkpoint +
WAL tail with zero reads of the non-replayable source.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.errors import InvalidParameterError, ReproError
from repro.soak import NonReplayableSource, get_scenario, run_soak
from repro.soak.scenario import Phase


class TestWalRecoveryScenario:
    @pytest.fixture(scope="class")
    def report(self):
        return run_soak("wal_recovery")

    def test_campaign_passes(self, report):
        assert report.ok, report.failures()

    def test_recoveries_never_touched_the_source(self, report):
        assert report.crashes == 2
        assert report.recoveries == 2
        assert report.recovery_source_reads == 0

    def test_every_injury_was_exercised(self, report):
        assert report.wal_appends > 0
        assert report.wal_fsyncs > 0  # fsync=always
        assert report.replayed_batches > 0
        assert report.wal_truncated_tails > 0  # torn_tail + partial_append
        assert report.wal_skipped_records > 0  # the bitflip
        assert report.wal_segments_compacted > 0  # retention ran
        assert report.wal_spill_restored > 0  # in-flight buffer came back
        assert report.enospc_injected == 1
        assert report.enospc_recovered == 1

    def test_convergence_was_actually_checked(self, report):
        # crash phases and the settle phase all end in an exact
        # comparison against the uninterrupted reference window
        assert report.convergence_checks >= 4

    def test_report_is_deterministic(self, report):
        again = run_soak("wal_recovery")
        assert report.to_dict() == again.to_dict()

    def test_report_round_trips_as_json(self, report):
        doc = json.loads(json.dumps(report.to_dict()))
        assert doc["wal_appends"] > 0
        assert doc["recovery_source_reads"] == 0


class TestScenarioValidationForWal:
    def test_wal_corrupt_requires_crash(self):
        with pytest.raises(InvalidParameterError, match="crash"):
            Phase(name="p", ticks=4, wal_corrupt=("torn_tail",))

    def test_unknown_wal_corrupt_mode(self):
        with pytest.raises(InvalidParameterError):
            Phase(name="p", ticks=4, crash_at=1, wal_corrupt=("nope",))


class TestNonReplayableSource:
    def test_counts_reads_and_refuses_second_iteration(self):
        source = NonReplayableSource([1, 2, 3])
        assert list(source) == [1, 2, 3]
        assert source.reads == 3
        with pytest.raises(ReproError, match="not replayable"):
            iter(source)


class TestWalCli:
    def test_soak_wal_dir_then_inspect(self, capsys, tmp_path):
        code = main(
            [
                "soak",
                "--scenario",
                "wal_recovery",
                "--checkpoint-dir",
                str(tmp_path),
                "--wal-dir",
                str(tmp_path / "log"),
                "--json",
                str(tmp_path / "report.json"),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "wal appends" in out
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["soak_passed"] is True
        assert doc["recovery_source_reads"] == 0
        # the surviving log passes offline verification
        code = main(
            [
                "wal",
                "inspect",
                "--dir",
                str(tmp_path / "log"),
                "--json",
                str(tmp_path / "inspect.json"),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "every record verified" in out
        inspect_doc = json.loads((tmp_path / "inspect.json").read_text())
        assert inspect_doc["clean"] and inspect_doc["records"] > 0

    def test_inspect_gates_on_damage(self, capsys, tmp_path):
        from conftest import make_objects
        from repro.durability import WriteAheadLog
        from repro.soak import corrupt_wal

        with WriteAheadLog(tmp_path) as wal:
            wal.append_batch(make_objects(3, seed=1, domain=40.0))
            wal.append_batch(make_objects(3, seed=2, domain=40.0))
        corrupt_wal(tmp_path, "bitflip")
        assert main(["wal", "inspect", "--dir", str(tmp_path)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_soak_list_includes_wal_recovery(self, capsys):
        assert main(["soak", "--list"]) == 0
        assert "wal_recovery" in capsys.readouterr().out


class TestWalRecoveryScenarioShape:
    def test_committed_scenario_is_wal_enabled(self):
        scn = get_scenario("wal_recovery")
        assert scn.wal_fsync == "always"
        kinds = [tuple(p.wal_corrupt) for p in scn.phases]
        assert ("torn_tail", "bitflip") in kinds
        assert ("partial_append",) in kinds
        assert any(p.enospc_at is not None for p in scn.phases)
