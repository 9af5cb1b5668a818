"""DeadlineController hysteresis and the AdaptiveMonitor ladder."""

from __future__ import annotations

import pytest

from conftest import make_objects
from repro.errors import InvalidParameterError
from repro.overload import AdaptiveMonitor, DeadlineController, LadderDecision
from repro.soak.invariants import exact_weight_over
from repro.window import CountWindow


def controller(**kwargs) -> DeadlineController:
    """Budget 10 ms: escalation watermark 8.5, de-escalation watermark
    5.0, panic above 16; one breach escalates, two clears plus three
    observations of residency de-escalate, EWMA weight 0.5."""
    defaults = dict(budget_ms=10.0)
    defaults.update(kwargs)
    return DeadlineController(**defaults)


class TestControllerValidation:
    @pytest.mark.parametrize("kwargs", [{"budget_ms": 0.0}])
    def test_rejected(self, kwargs):
        with pytest.raises(InvalidParameterError):
            controller(**kwargs)


class TestControllerDecisions:
    def test_escalates_after_consecutive_watermark_breaches(self):
        ctl = controller()
        assert ctl.observe(7.0) is LadderDecision.HOLD  # dead band
        assert ctl.observe(10.0) is LadderDecision.HOLD  # EWMA 8.5: at it
        # EWMA 9.05 over the watermark, sample within the budget: one
        # breach is enough
        assert ctl.observe(9.6) is LadderDecision.ESCALATE

    def test_escalation_is_never_delayed_by_residency(self):
        ctl = controller()
        # first observation: residency 1, far short of the three a
        # step down needs
        assert ctl.observe(9.0) is LadderDecision.ESCALATE

    def test_success_in_dead_band_resets_the_streak(self):
        ctl = controller()
        assert ctl.observe(1.0) is LadderDecision.HOLD  # clear 1
        assert ctl.observe(1.0) is LadderDecision.HOLD  # clear 2, residency 2
        assert ctl.observe(12.0) is LadderDecision.HOLD  # EWMA 6.5: reset
        assert ctl.observe(1.0) is LadderDecision.HOLD  # EWMA 3.75: clear 1
        assert ctl.observe(1.0) is LadderDecision.DEESCALATE  # clear 2

    def test_panic_on_single_catastrophic_sample(self):
        ctl = controller()
        ctl.observe(0.0)
        # > 1.6 x budget under a backlog: the raw sample alone decides,
        # though the EWMA (8.25) has not crossed the watermark
        assert ctl.observe(16.5, backlog=5) is LadderDecision.PANIC

    def test_escalation_upgraded_to_panic_when_sample_over_full_budget(self):
        # EWMA pressure plus a raw sample past the budget (but short of
        # 1.6 x budget) under a backlog: a one-rung step would burn one
        # over-budget sample per rung, so the controller jumps
        assert controller().observe(12.0, backlog=5) is LadderDecision.PANIC
        assert controller().observe(9.0, backlog=5) is LadderDecision.ESCALATE
        ctl = controller()
        ctl.observe(2.0)
        assert ctl.observe(12.0, backlog=5) is LadderDecision.HOLD  # EWMA 7

    def test_over_budget_sample_without_backlog_is_not_a_panic(self):
        # nothing waiting: a hiccup of the host, not a burst; even a
        # catastrophic sample only feeds the EWMA and the staircase
        assert controller().observe(17.0) is LadderDecision.ESCALATE
        assert controller().observe(12.0) is LadderDecision.ESCALATE
        ctl = controller()
        ctl.observe(0.0)
        assert ctl.observe(16.5) is LadderDecision.HOLD  # EWMA 8.25

    def test_deescalates_after_clears_and_residency(self):
        ctl = controller()
        assert ctl.observe(1.0) is LadderDecision.HOLD
        assert ctl.observe(1.0) is LadderDecision.HOLD  # residency 2 < 3
        assert ctl.observe(1.0) is LadderDecision.DEESCALATE

    def test_note_transition_restarts_counters(self):
        ctl = controller()
        for _ in range(3):
            ctl.observe(1.0)
        ctl.note_transition()
        assert ctl.observe(1.0) is LadderDecision.HOLD  # clears restart
        assert ctl.observe(1.0) is LadderDecision.HOLD  # residency restarts
        assert ctl.observe(1.0) is LadderDecision.DEESCALATE

    def test_ewma_mirrored_into_metrics(self):
        """``latency_ewma_ms`` reads the controller's EWMA."""
        ctl = controller()
        ctl.observe(10.0)
        ctl.observe(20.0)
        assert ctl.latency_ewma_ms == 15.0


# -- AdaptiveMonitor ---------------------------------------------------------


def make_adaptive(**kwargs) -> AdaptiveMonitor:
    defaults = dict(budget_ms=10_000.0, epsilon_schedule=(0.2, 0.4), seed=3)
    defaults.update(kwargs)
    return AdaptiveMonitor(
        20.0, 20.0, lambda: CountWindow(300), **defaults
    )


class TestAdaptiveValidation:
    @pytest.mark.parametrize(
        "schedule", [(), (0.0,), (1.0,), (1.5,), (0.4, 0.2), (0.2, 0.2)]
    )
    def test_bad_epsilon_schedule_rejected(self, schedule):
        with pytest.raises(InvalidParameterError):
            make_adaptive(epsilon_schedule=schedule)

    def test_mode_names_span_the_ladder(self):
        adaptive = make_adaptive()
        assert adaptive.mode_names == (
            "exact",
            "approx(0.2)",
            "approx(0.4)",
            "sampling",
        )
        assert adaptive.sampling_rung == 3


class TestAdaptiveServing:
    def test_exact_result_carries_the_contract(self):
        adaptive = make_adaptive()
        result = adaptive.update(make_objects(60))
        assert result.mode == "exact"
        assert result.guarantee == 1.0
        exact = exact_weight_over(adaptive.window.contents, 20.0)
        assert result.best_weight == pytest.approx(exact)

    def test_guarantee_per_rung(self):
        adaptive = make_adaptive()
        floors = []
        for rung in range(adaptive.sampling_rung + 1):
            adaptive._transition(rung, "test")
            floors.append(adaptive.guarantee)
        assert floors == [1.0, pytest.approx(0.8), pytest.approx(0.6), 0.0]

    def test_ingest_primes_every_warm_rung(self):
        adaptive = make_adaptive()
        adaptive.ingest(make_objects(40))
        assert len(adaptive.window.contents) == 40
        assert len(adaptive._ag2_core().window.contents) == 40

    def test_approx_rung_honours_its_floor(self):
        # modeled samples in the dead band: the ladder holds its rung
        adaptive = make_adaptive(latency_model=lambda rung, batch: 6_000.0)
        adaptive.ingest(make_objects(80))
        adaptive._transition(1, "test")  # approx(0.2)
        for step in range(1, 6):
            result = adaptive.update(make_objects(20, seed=step))
            exact = exact_weight_over(adaptive.window.contents, 20.0)
            assert result.mode == "approx"
            assert result.guarantee == pytest.approx(0.8)
            assert result.best_weight >= 0.8 * exact - 1e-9

    def test_dialing_epsilon_keeps_the_same_index(self):
        adaptive = make_adaptive()
        adaptive.update(make_objects(50))
        index_before = adaptive._ag2
        adaptive._transition(1, "test")
        assert adaptive._ag2 is index_before  # no rebuild, just a dial
        assert adaptive._ag2_core().epsilon == pytest.approx(0.2)
        assert adaptive.rebuilds == 0


class TestLadderWalk:
    def test_panic_drops_straight_to_sampling(self):
        adaptive = make_adaptive(budget_ms=1e-7)  # everything is over
        adaptive.ingest(make_objects(60))
        adaptive.note_pressure(5)  # and a backlog licenses the panic
        adaptive.update(make_objects(10, seed=1))
        assert adaptive.mode == "sampling"
        assert adaptive.transitions[-1]["reason"] == "panic"
        result = adaptive.update(make_objects(10, seed=2))
        assert result.mode == "sampling"
        assert result.guarantee == 0.0

    def test_backlog_turns_an_over_budget_update_into_a_panic(self):
        # budget 10 ms, every update modeled at 12 ms: over the budget,
        # short of the 16 ms panic factor
        calm = make_adaptive(
            budget_ms=10.0, latency_model=lambda rung, batch: 12.0
        )
        calm.update(make_objects(10, seed=1))
        assert calm.mode == "approx(0.2)"
        assert calm.transitions[-1]["reason"] == "deadline_pressure"
        burst = make_adaptive(
            budget_ms=10.0, latency_model=lambda rung, batch: 12.0
        )
        burst.note_pressure(30)
        burst.update(make_objects(10, seed=1))
        assert burst.mode == "sampling"
        assert burst.transitions[-1]["reason"] == "panic"

    def _parked_in_sampling(self) -> AdaptiveMonitor:
        """A ladder at the sampling rung whose updates all clear the
        de-escalation watermark."""
        adaptive = make_adaptive(latency_model=lambda rung, batch: 0.0)
        adaptive.ingest(make_objects(60))
        adaptive._transition(adaptive.sampling_rung, "test")
        return adaptive

    def test_recovery_steps_down_and_rebuilds_in_slack(self):
        adaptive = self._parked_in_sampling()
        adaptive.update(make_objects(10, seed=1))
        adaptive.update(make_objects(10, seed=2))
        assert adaptive.rung == adaptive.sampling_rung  # residency 2 < 3
        adaptive.update(make_objects(10, seed=3))  # -> DEESCALATE
        assert adaptive.rung == adaptive.sampling_rung - 1
        assert adaptive.transitions[-1]["reason"] == "headroom"
        assert adaptive._ag2_stale  # rebuild is deferred, not eager
        adaptive.note_pressure(0)  # slack: pay the rebuild here
        assert not adaptive._ag2_stale
        assert adaptive.rebuilds == 1
        assert len(adaptive._ag2_core().window.contents) == len(
            adaptive.window.contents
        )

    def test_stale_rebuild_falls_back_to_update_when_no_slack(self):
        adaptive = self._parked_in_sampling()
        for seed in range(1, 4):  # the third update leaves sampling
            adaptive.update(make_objects(10, seed=seed))
        assert adaptive._ag2_stale
        result = adaptive.update(make_objects(10, seed=4))  # forces rebuild
        assert adaptive.rebuilds == 1
        assert not adaptive._ag2_stale
        assert result.mode in ("exact", "approx")

    def test_backlog_defers_recovery(self):
        adaptive = self._parked_in_sampling()
        adaptive.note_pressure(5)  # queue still draining
        for seed in range(1, 4):
            adaptive.update(make_objects(10, seed=seed))
        assert adaptive.rung == adaptive.sampling_rung  # held cheap
        assert adaptive.deescalations_deferred == 1
        adaptive.note_pressure(0)
        adaptive.update(make_objects(10, seed=4))
        assert adaptive.rung == adaptive.sampling_rung - 1

    def test_rung_can_run_ahead_of_the_answer(self):
        # the controller steers after answering: the update that earns
        # a step down is still answered on the approximate rung
        adaptive = make_adaptive(latency_model=lambda rung, batch: 0.0)
        adaptive.ingest(make_objects(60))
        adaptive._transition(1, "test")  # approx(0.2)
        for seed in range(1, 4):
            result = adaptive.update(make_objects(10, seed=seed))
        assert adaptive.mode == "exact"
        assert result.mode == "approx"
        assert adaptive.result is result
