"""DeadlineController hysteresis and the AdaptiveMonitor ladder."""

from __future__ import annotations

import pytest

from conftest import make_objects
from repro.errors import InvalidParameterError
from repro.obs import Metrics
from repro.overload import (
    AdaptiveMonitor,
    BreakerState,
    CircuitBreaker,
    DeadlineController,
    LadderDecision,
)
from repro.soak.invariants import exact_weight_over
from repro.window import CountWindow


def controller(**kwargs) -> DeadlineController:
    """Deterministic controller: alpha=1 makes the EWMA the last sample."""
    defaults = dict(
        budget_ms=10.0,
        alpha=1.0,
        high_fraction=0.9,
        low_fraction=0.5,
        escalate_after=2,
        deescalate_after=2,
        min_residency=0,
        panic_factor=3.0,
    )
    defaults.update(kwargs)
    return DeadlineController(**defaults)


class TestControllerValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"budget_ms": 0.0},
            {"low_fraction": 0.9, "high_fraction": 0.9},
            {"low_fraction": 0.0},
            {"high_fraction": 1.2},
            {"escalate_after": 0},
            {"deescalate_after": 0},
            {"min_residency": -1},
            {"panic_factor": 1.0},
        ],
    )
    def test_rejected(self, kwargs):
        with pytest.raises(InvalidParameterError):
            controller(**kwargs)

    def test_set_budget_validated(self):
        ctl = controller()
        with pytest.raises(InvalidParameterError):
            ctl.set_budget(0.0)
        ctl.set_budget(25.0)
        assert ctl.budget_ms == 25.0


class TestControllerDecisions:
    def test_escalates_after_consecutive_watermark_breaches(self):
        ctl = controller()  # watermark at 9, budget 10
        assert ctl.observe(9.5) is LadderDecision.HOLD
        assert ctl.observe(9.5) is LadderDecision.ESCALATE

    def test_escalation_is_never_delayed_by_residency(self):
        ctl = controller(min_residency=100)
        ctl.observe(9.5)
        assert ctl.observe(9.5) is LadderDecision.ESCALATE

    def test_success_in_dead_band_resets_the_streak(self):
        ctl = controller()
        ctl.observe(9.5)  # one breach
        assert ctl.observe(7.0) is LadderDecision.HOLD  # dead band: reset
        assert ctl.observe(9.5) is LadderDecision.HOLD  # streak starts over

    def test_panic_on_single_catastrophic_sample(self):
        ctl = controller()
        assert ctl.observe(31.0) is LadderDecision.PANIC  # > 3 x budget

    def test_escalation_upgraded_to_panic_when_sample_over_full_budget(self):
        # EWMA pressure plus a raw sample past the budget (but short of
        # panic_factor x budget): a one-rung step would burn one
        # over-budget sample per rung, so the controller jumps.
        ctl = controller()
        assert ctl.observe(15.0) is LadderDecision.HOLD
        assert ctl.observe(15.0) is LadderDecision.PANIC

    def test_deescalates_after_clears_and_residency(self):
        ctl = controller(deescalate_after=2, min_residency=3)
        assert ctl.observe(1.0) is LadderDecision.HOLD
        assert ctl.observe(1.0) is LadderDecision.HOLD  # residency 2 < 3
        assert ctl.observe(1.0) is LadderDecision.DEESCALATE

    def test_note_transition_restarts_counters(self):
        ctl = controller(deescalate_after=2)
        ctl.observe(1.0)
        ctl.observe(1.0)
        ctl.note_transition()
        assert ctl.observe(1.0) is LadderDecision.HOLD  # clears restart

    def test_ewma_mirrored_into_metrics(self):
        metrics = Metrics("ctl")
        ctl = controller(alpha=0.5, metrics=metrics)
        ctl.observe(10.0)
        ctl.observe(20.0)
        assert metrics.snapshot().gauges["latency_ewma_ms"] == 15.0
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
        assert result.stale_for == 0
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
        adaptive = make_adaptive()
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
        adaptive = make_adaptive(
            controller=controller(budget_ms=1e-7)  # everything panics
        )
        adaptive.ingest(make_objects(60))
        adaptive.update(make_objects(10, seed=1))
        assert adaptive.mode == "sampling"
        assert adaptive.transitions[-1]["reason"] == "panic"
        result = adaptive.update(make_objects(10, seed=2))
        assert result.mode == "sampling"
        assert result.guarantee == 0.0

    def test_recovery_steps_down_and_rebuilds_in_slack(self):
        adaptive = make_adaptive(
            controller=controller(
                budget_ms=10_000.0, deescalate_after=1, min_residency=0
            )
        )
        adaptive.ingest(make_objects(60))
        adaptive._transition(adaptive.sampling_rung, "test")
        adaptive.update(make_objects(10, seed=1))  # cheap -> DEESCALATE
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
        adaptive = make_adaptive(
            controller=controller(
                budget_ms=10_000.0, deescalate_after=1, min_residency=0
            )
        )
        adaptive.ingest(make_objects(60))
        adaptive._transition(adaptive.sampling_rung, "test")
        adaptive.update(make_objects(10, seed=1))  # leaves sampling, stale
        result = adaptive.update(make_objects(10, seed=2))  # forces rebuild
        assert adaptive.rebuilds == 1
        assert not adaptive._ag2_stale
        assert result.mode in ("exact", "approx")

    def test_backlog_defers_recovery(self):
        adaptive = make_adaptive(
            controller=controller(
                budget_ms=10_000.0, deescalate_after=1, min_residency=0
            )
        )
        adaptive.ingest(make_objects(60))
        adaptive._transition(adaptive.sampling_rung, "test")
        adaptive.note_pressure(5)  # queue still draining
        adaptive.update(make_objects(10, seed=1))
        assert adaptive.rung == adaptive.sampling_rung  # held cheap
        assert adaptive.deescalations_deferred == 1
        adaptive.note_pressure(0)
        adaptive.update(make_objects(10, seed=2))
        assert adaptive.rung == adaptive.sampling_rung - 1

    def test_no_rebuild_in_slack_while_breaker_open(self):
        breaker = CircuitBreaker(trip_after=1, cooldown=100)
        adaptive = make_adaptive(breaker=breaker)
        adaptive.ingest(make_objects(40))
        adaptive._transition(adaptive.sampling_rung, "test")
        adaptive._transition(1, "test")  # back on an aG2 rung, index stale
        breaker.record_update(over_deadline=True)  # trips OPEN
        assert breaker.state is BreakerState.OPEN
        adaptive.note_pressure(0)
        assert adaptive._ag2_stale  # rebuild withheld: breaker would skip it
        assert adaptive.rebuilds == 0


class TestBreakerIntegration:
    def test_open_breaker_serves_stale_with_warm_window(self):
        adaptive = make_adaptive(
            controller=controller(budget_ms=1e-7),  # every update breaches
            breaker=CircuitBreaker(trip_after=1, cooldown=100),
        )
        adaptive.ingest(make_objects(60))
        served = adaptive.update(make_objects(10, seed=1))  # trips breaker
        assert adaptive.breaker.state is BreakerState.OPEN
        assert adaptive.transitions[-1]["reason"] == "breaker_trip"
        before = len(adaptive.window.contents)
        stale_one = adaptive.update(make_objects(10, seed=2))
        stale_two = adaptive.update(make_objects(10, seed=3))
        assert stale_one.stale_for == 1
        assert stale_two.stale_for == 2
        assert stale_two.best_weight == served.best_weight  # held answer
        assert len(adaptive.window.contents) > before  # window stayed warm
        assert adaptive.stale_residency == 2

    def test_summary_shape(self):
        adaptive = make_adaptive()
        adaptive.update(make_objects(30))
        summary = adaptive.overload_summary()
        assert summary["mode"] == "exact"
        assert summary["rung"] == 0
        assert summary["guarantee"] == 1.0
        assert summary["breaker_state"] == "closed"
        assert summary["transitions"] == []
        assert summary["residency"]["exact"] == 1
        assert set(summary) >= {
            "budget_ms",
            "latency_ewma_ms",
            "stale_served",
            "breaker_trips",
            "rebuilds",
            "deescalations_deferred",
        }
