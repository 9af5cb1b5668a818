"""End-to-end soak subsystem tests: scenarios, injectors, invariants,
crash-restart recovery, and the determinism contract.

The headline guarantees under test:

* every committed scenario passes (no cross-layer invariant breach);
* two runs of the same modeled-latency scenario + seed serialise to
  identical reports;
* every crash recovers from checkpoint + WAL tail, never the source;
* a bit-flipped checkpoint fails the campaign when checksum
  verification is disabled and passes (via rotation fallback) when it
  is enabled;
* the externally driven engine session (process/teardown/restore)
  behaves like a crash of the compute tier only.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from conftest import make_objects
from repro.core.naive import NaiveMonitor
from repro.core.objects import SpatialObject
from repro.errors import InvalidParameterError, ReproError
from repro.obs import Metrics
from repro.overload import AdaptiveMonitor, BackpressureQueue
from repro.resilience import IngestGuard
from repro.resilience.checkpoint import CheckpointManager
from repro.engine.engine import StreamEngine
from repro.soak import (
    ClockSkewSource,
    InvariantMonitor,
    LoadGenerator,
    Phase,
    Scenario,
    corrupt_checkpoint,
    exact_weight_over,
    get_scenario,
    list_scenarios,
    run_soak,
)
from repro.window import CountWindow


class TestScenarioValidation:
    def test_committed_suite_is_valid(self):
        scenarios = list_scenarios()
        assert [s.name for s in scenarios] == [
            "smoke",
            "dirty_overload",
            "crash_recovery",
            "wal_recovery",
            "overload_wall",
        ]

    def test_unknown_scenario_rejected(self):
        with pytest.raises(InvalidParameterError, match="unknown scenario"):
            get_scenario("nope")

    def test_phase_rejects_bad_fields(self):
        with pytest.raises(InvalidParameterError, match="ticks"):
            Phase(name="p", ticks=0)
        with pytest.raises(InvalidParameterError, match="p_drop"):
            Phase(name="p", p_drop=1.5)
        with pytest.raises(InvalidParameterError, match="crash_at"):
            Phase(name="p", ticks=5, crash_at=5)
        with pytest.raises(InvalidParameterError, match="needs"):
            Phase(name="p", corrupt="torn")  # corrupt without crash_at
        with pytest.raises(InvalidParameterError, match="corruption mode"):
            Phase(name="p", crash_at=0, corrupt="gamma-ray")

    def test_scenario_rejects_inconsistencies(self):
        clean = Phase(name="a")
        with pytest.raises(InvalidParameterError, match="at least one"):
            Scenario(name="s", description="d", phases=())
        with pytest.raises(InvalidParameterError, match="unique"):
            Scenario(name="s", description="d", phases=(clean, clean))


class TestInjectors:
    def test_clock_skew_validation(self):
        with pytest.raises(InvalidParameterError, match="skew"):
            ClockSkewSource([], skew=0, period=10)
        with pytest.raises(InvalidParameterError, match="period"):
            ClockSkewSource([], skew=1.0, period=0)
        with pytest.raises(InvalidParameterError, match="burst"):
            ClockSkewSource([], skew=1.0, period=4, burst=5)

    def test_skew_schedule_is_positional(self):
        objects = make_objects(10, seed=3, start_t=100.0)
        source = ClockSkewSource(objects, skew=50.0, period=5, burst=2)
        out = list(source)
        assert source.skewed == 4  # positions 0,1 and 5,6
        for i, (original, seen) in enumerate(zip(objects, out)):
            if i % 5 < 2:
                assert seen.timestamp == original.timestamp - 50.0
            else:
                assert seen.timestamp == original.timestamp

    def test_non_objects_pass_through_but_advance_position(self):
        objects = make_objects(4, seed=1)
        mixed = [objects[0], "garbage", objects[1], objects[2]]
        source = ClockSkewSource(mixed, skew=5.0, period=2, burst=1)
        out = list(source)
        assert out[1] == "garbage"  # untouched, but burnt position 1
        assert source.skewed == 2  # positions 0 and 2

    def test_corrupt_checkpoint_validation(self, tmp_path):
        missing = tmp_path / "none.json"
        with pytest.raises(InvalidParameterError, match="no checkpoint"):
            corrupt_checkpoint(missing, "torn")
        target = tmp_path / "ckpt.json"
        target.write_text('{"format": 1}')
        with pytest.raises(InvalidParameterError, match="unknown corruption"):
            corrupt_checkpoint(target, "cosmic")

    def test_torn_truncates_and_bitflip_keeps_envelope(self, tmp_path):
        monitor = NaiveMonitor(12, 12, CountWindow(30))
        monitor.update(make_objects(20, seed=5))
        path = tmp_path / "ckpt.json"
        CheckpointManager(monitor, path).checkpoint()
        pristine = json.loads(path.read_text())

        bitflip = tmp_path / "flip.json"
        bitflip.write_text(path.read_text())
        corrupt_checkpoint(bitflip, "bitflip")
        flipped = json.loads(bitflip.read_text())
        assert flipped["crc32"] == pristine["crc32"]  # silent damage
        assert flipped["state"] != pristine["state"]

        corrupt_checkpoint(path, "torn")
        with pytest.raises(json.JSONDecodeError):
            json.loads(path.read_text())


class TestRunSoak:
    def test_smoke_passes_with_full_invariant_coverage(self):
        report = run_soak("smoke")
        assert report.ok and not report.failures()
        assert report.ledger_checks > 0
        assert report.watermark_checks > 0
        assert report.guarantee_checks > 0
        assert report.convergence_checks > 0
        assert report.offered == (
            report.admitted
            + report.quarantined
            + report.skipped
            + report.late_dropped
            + report.reorder_pending
        )
        # faults of every configured family were actually injected
        assert report.drops > 0
        assert report.duplicates > 0
        assert report.corrupt_payloads > 0
        assert report.delayed > 0
        assert report.skewed > 0

    def test_same_seed_reports_are_identical(self):
        first = run_soak("smoke").to_dict()
        second = run_soak("smoke").to_dict()
        assert first == second

    def test_different_seed_changes_the_run(self):
        base = run_soak("smoke").to_dict()
        other = run_soak("smoke", seed=1234).to_dict()
        assert base != other

    def test_dirty_overload_forces_the_ladder_and_sheds(self):
        report = run_soak("dirty_overload")
        assert report.ok, report.failures()
        assert report.shed > 0
        assert report.ladder_transitions > 0
        assert report.final_mode == "exact"

    def test_crash_recovery_survives_all_three_corruptions(self):
        report = run_soak("crash_recovery")
        assert report.ok, report.failures()
        assert report.crashes == 3
        assert report.recoveries == 3
        assert report.cold_starts == 0
        assert report.replayed_batches > 0
        # the queue's in-flight buffer died with the tier, was journalled
        # as a WAL spill record, and came back into the queue
        assert report.wal_spill_restored > 0
        assert report.spilled == 0
        # torn latest -> fallback; bitflipped rotation -> checksum catch
        assert report.checkpoint_fallbacks >= 2
        assert report.checksum_failures >= 1
        # every replayed batch came off the WAL, none off the source
        assert report.wal_appends > 0
        assert report.recovery_source_reads == 0

    def test_smoke_keeps_the_chaos_fault_mix_and_dlq_complete(self):
        report = run_soak("smoke")
        assert report.ok, report.failures()
        assert report.drops > 0
        assert report.duplicates > 0
        assert report.corrupt_payloads > 0
        assert report.delayed > 0
        # every rejected record is in the dead-letter totals
        assert report.quarantined > 0 and report.late_dropped > 0
        assert report.dead_letters == (
            report.quarantined + report.late_dropped
        )
        # every applied batch was journalled before the compute tier
        assert report.wal_appends == report.batches

    @pytest.mark.parametrize(
        "name",
        [s.name for s in list_scenarios() if s.unit_ms is not None],
    )
    def test_modeled_scenarios_are_deterministic(self, name):
        first = run_soak(name)
        assert first.ok, first.failures()
        assert not first.calibrated and first.p95_update_ms is None
        assert first.recovery_source_reads == 0
        assert first.to_dict() == run_soak(name).to_dict()

    def test_bitflip_fails_without_checksum_verification(self):
        report = run_soak("crash_recovery", verify_checksum=False)
        assert not report.ok
        kinds = {v["kind"] for v in report.violations}
        assert "convergence_contents" in kinds
        phases = {v["phase"] for v in report.violations}
        assert "crash_bitflip" in phases
        assert any("crash_bitflip" in line for line in report.failures())

    def test_checkpoint_dir_is_honoured(self, tmp_path):
        workdir = tmp_path / "ckpts"
        report = run_soak("smoke", checkpoint_dir=workdir)
        assert report.ok
        assert (workdir / "smoke.ckpt.json").exists()


class TestOverloadWall:
    """The calibrated, wall-clock scenario.  Its p95 gate is timing, not
    logic, so tier-1 asserts everything but ``latency_budget``; the
    ``soak`` command's exit code carries the p95 gate in CI."""

    def test_calibrated_ladder_goes_down_and_back(self):
        report = run_soak("overload_wall")
        assert report.calibrated
        assert report.budget_ms > 0.0
        assert report.p95_update_ms is not None
        kinds = {v["kind"] for v in report.violations}
        assert kinds <= {"latency_budget"}, report.failures()
        reasons = report.transition_reasons
        assert reasons.keys() & {"panic", "deadline_pressure"}, reasons
        assert reasons.get("headroom", 0) > 0, reasons
        assert report.final_mode == "exact"
        assert report.guarantee_checks > 0

    def test_p95_over_budget_is_a_violation(self, monkeypatch):
        from repro.soak import harness

        monkeypatch.setattr(harness, "_calibrate_budget_ms", lambda *_: 1e-9)
        scenario = dataclasses.replace(
            get_scenario("overload_wall"),
            phases=(Phase(name="calm", ticks=4),),
        )
        report = run_soak(scenario)
        assert not report.ok
        assert [v["kind"] for v in report.violations] == ["latency_budget"]
        assert report.violations[0]["phase"] == "final"


class TestInvariantMonitor:
    def _monitor(self):
        guard = IngestGuard(policy="quarantine", max_lateness=1.0)
        queue = BackpressureQueue(100, policy="shed_oldest", max_batch=50)
        return guard, InvariantMonitor(guard=guard, queue=queue, side=10.0)

    def test_dead_letters_close_over_quarantine_and_late(self):
        guard, invariants = self._monitor()
        guard.filter(["garbage", *make_objects(3, seed=1, start_t=10.0)])
        guard.filter(make_objects(1, seed=2, start_t=0.0))  # too late
        assert guard.quarantined == 1 and guard.late_dropped == 1
        invariants.check_tick("p", holdover=guard.admitted)
        assert invariants.ok, invariants.violations

    def test_quarantined_record_bypassing_the_dlq_is_a_violation(self):
        guard, invariants = self._monitor()
        guard.dead_letters.put = lambda letter: None  # the DLQ drops it
        guard.filter(["garbage", *make_objects(3, seed=1, start_t=10.0)])
        invariants.check_tick("p", holdover=guard.admitted)
        assert [v["kind"] for v in invariants.violations] == [
            "dlq_completeness"
        ]

    def test_convergence_judges_the_answer_not_the_rung(self):
        # a modeled-latency ladder whose last update de-escalates: its
        # rung already reads exact, but that update was answered on the
        # approximate rung, which is no exact re-convergence
        adaptive = AdaptiveMonitor(
            10.0,
            10.0,
            lambda: CountWindow(200),
            budget_ms=10.0,
            epsilon_schedule=(0.2,),
            latency_model=lambda rung, batch: 0.0,
        )
        reference = CountWindow(200)
        prime = make_objects(100, seed=3)
        adaptive.ingest(prime)
        reference.push(prime)
        adaptive._transition(1, "test")  # approx(0.2)
        for step in range(10):  # stop on the update that steps down
            batch = make_objects(10, seed=4 + step, start_t=100.0 + 10 * step)
            adaptive.update(batch)
            reference.push(batch)
            if adaptive.mode == "exact":
                break
        assert adaptive.mode == "exact"
        assert adaptive.result.mode == "approx"
        _, invariants = self._monitor()
        invariants.check_convergence(
            "p", adaptive, reference, where="phase end"
        )
        assert [v["kind"] for v in invariants.violations] == [
            "convergence_mode"
        ]
        detail = invariants.violations[0]["detail"]
        assert "'approx'" in detail and "'exact'" in detail


class TestExactCompanion:
    def test_empty_window_scores_zero(self):
        assert exact_weight_over([], 10.0) == 0.0


class TestLoadGenerator:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"base_rate": 0},
            {"pattern": "sawtooth"},
            {"burst_factor": 0.5},
            {"period": 0},
            {"burst_ticks": 0},
            {"burst_ticks": 90, "period": 80},
            {"jitter": 1.0},
            {"jitter": -0.1},
        ],
    )
    def test_parameters_validated(self, kwargs):
        defaults = dict(base_rate=10)
        defaults.update(kwargs)
        with pytest.raises(InvalidParameterError):
            LoadGenerator(**defaults)

    def test_ticks_validated(self):
        with pytest.raises(InvalidParameterError):
            LoadGenerator(10).arrivals(0)

    def test_same_seed_reproduces_exactly(self):
        a = LoadGenerator(10, seed=4).arrivals(50)
        b = LoadGenerator(10, seed=4).arrivals(50)
        c = LoadGenerator(10, seed=5).arrivals(50)
        assert a == b
        assert a != c

    def test_square_wave_shape(self):
        gen = LoadGenerator(
            10, pattern="square", burst_factor=5.0, period=10,
            burst_ticks=3, jitter=0.0,
        )
        counts = gen.arrivals(20)
        assert counts[:3] == [50, 50, 50]
        assert counts[3:10] == [10] * 7
        assert counts[10:13] == [50, 50, 50]  # second period bursts again

    def test_spike_is_one_tick_per_period(self):
        gen = LoadGenerator(
            10, pattern="spike", burst_factor=8.0, period=5, jitter=0.0,
            burst_ticks=1,
        )
        counts = gen.arrivals(10)
        assert counts == [80, 10, 10, 10, 10, 80, 10, 10, 10, 10]

    def test_ramp_is_a_triangle(self):
        gen = LoadGenerator(
            10, pattern="ramp", burst_factor=5.0, period=8, burst_ticks=4,
            jitter=0.0,
        )
        counts = gen.arrivals(8)
        assert counts[0] == 10
        assert max(counts) == counts[4] == 50  # crest at the half period
        assert counts[1:5] == sorted(counts[1:5])  # monotone climb
        assert counts[4:] == sorted(counts[4:], reverse=True)

    def test_jitter_stays_within_band(self):
        gen = LoadGenerator(100, pattern="square", burst_factor=1.0,
                            burst_ticks=1, jitter=0.2, seed=9)
        for count in gen.arrivals(200):
            assert 80 <= count <= 120


class TestSoakReportProtocol:
    def test_rows_and_dict_stay_aligned(self):
        report = run_soak("smoke")
        rows = report.rows()
        doc = report.to_dict()
        for row in rows:
            key = str(row["quantity"]).replace(" ", "_")
            assert doc[key] == row["value"]
        assert "violation_details" in doc
        assert "phase_breakdown" in doc
        assert "transition_reasons" in doc

    def test_failures_capped_and_counted(self):
        report = run_soak("smoke")
        many = dataclasses.replace(
            report,
            violations=[
                {"phase": "p", "kind": "k", "detail": str(i)}
                for i in range(25)
            ],
        )
        lines = many.failures()
        assert len(lines) == 21
        assert lines[-1] == "... and 5 more violations"
        assert not many.ok


class TestEngineSession:
    def _engine(self):
        monitor = NaiveMonitor(12, 12, CountWindow(40))
        return StreamEngine({"m": monitor}, iter(()), batch_size=10), monitor

    def test_process_accumulates_one_session(self):
        engine, monitor = self._engine()
        batches = [make_objects(10, seed=i, start_t=i * 10.0) for i in range(3)]
        for batch in batches:
            results = engine.process(batch)
        assert results["m"].window_size == 30
        report = engine.collect_report()
        assert report.batches == 3
        with pytest.raises(ReproError, match="no process"):
            engine.collect_report()

    def test_process_rejects_empty_batches(self):
        engine, _ = self._engine()
        with pytest.raises(InvalidParameterError, match="non-empty"):
            engine.process([])

    def test_teardown_blocks_processing_until_restore(self):
        engine, monitor = self._engine()
        engine.process(make_objects(10, seed=1))
        engine.teardown()
        assert engine.monitors == {}
        with pytest.raises(ReproError, match="torn down"):
            engine.process(make_objects(10, seed=2))
        with pytest.raises(InvalidParameterError):
            engine.restore({})
        replacement = NaiveMonitor(12, 12, CountWindow(40))
        engine.restore({"m": replacement})
        results = engine.process(make_objects(10, seed=3))
        assert results["m"].window_size == 10

    def test_restore_reattaches_metrics_scopes(self):
        metrics = Metrics("t")
        monitor = NaiveMonitor(12, 12, CountWindow(40))
        engine = StreamEngine(
            {"m": monitor}, iter(()), batch_size=10, metrics=metrics
        )
        engine.process(make_objects(10, seed=1))
        engine.teardown()
        replacement = NaiveMonitor(12, 12, CountWindow(40))
        engine.restore({"m": replacement})
        engine.process(make_objects(10, seed=2))
        snap = metrics.snapshot()
        # both incarnations observed under the same scope
        assert snap.counters["m.objects_seen"] == 20


class TestCustomScenario:
    def test_tiny_custom_scenario_runs(self, tmp_path):
        scenario = Scenario(
            name="tiny",
            description="two clean phases with a plain crash",
            window=80,
            rate=20,
            checkpoint_every=2,
            stride=2,
            phases=(
                Phase(name="warm", ticks=6),
                Phase(
                    name="crash",
                    kind="crash",
                    ticks=6,
                    crash_at=2,
                    verify_convergence=True,
                ),
            ),
        )
        report = run_soak(scenario, checkpoint_dir=tmp_path)
        assert report.ok, report.failures()
        assert report.crashes == 1
        assert report.recoveries == 1
        assert report.scenario == "tiny"

    def test_block_policy_holds_over_and_reoffers(self, tmp_path):
        # a BLOCK queue refuses what it cannot hold; the harness keeps
        # the refused objects upstream and re-offers them every tick, so
        # a burst is delayed, never lost
        scenario = Scenario(
            name="blocked",
            description="one burst against a small BLOCK queue",
            window=80,
            rate=20,
            capacity_factor=2,
            max_batch_factor=1,
            shed_policy="block",
            stride=0,
            phases=(
                Phase(
                    name="burst",
                    kind="overload",
                    ticks=12,
                    pattern="spike",
                    burst_factor=6.0,
                    period=12,
                    verify_convergence=True,
                ),
            ),
        )
        report = run_soak(scenario, checkpoint_dir=tmp_path)
        assert report.ok, report.failures()
        assert report.refused_offers > 0
        assert report.shed == 0
        # the drain emptied the holdover into the window: every admitted
        # object was processed
        assert report.holdover == 0 and report.queue_pending == 0
        assert report.processed == report.admitted

    def test_cold_start_when_no_checkpoint_exists(self, tmp_path):
        # the prime checkpoint is the only one before the crash; tearing
        # it leaves nothing readable, so recovery cold-starts from the
        # retained prime and replays the whole WAL
        scenario = Scenario(
            name="cold",
            description="crash with only a torn prime checkpoint",
            window=60,
            rate=20,
            checkpoint_every=50,  # never reached before the crash
            stride=0,
            phases=(
                Phase(
                    name="early_crash",
                    kind="crash",
                    ticks=5,
                    crash_at=2,
                    corrupt="torn",
                    verify_convergence=True,
                ),
            ),
        )
        report = run_soak(scenario, checkpoint_dir=tmp_path)
        assert report.ok, report.failures()
        assert report.cold_starts == 1
        assert report.recoveries == 0
        assert report.recovery_source_reads == 0
        # replay covered everything applied before the crash
        assert report.replayed_batches == 2
