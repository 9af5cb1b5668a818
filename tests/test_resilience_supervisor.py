"""Supervision tests: self-healing monitors and retrying sources.

The supervised contract: a mid-update failure (raised exception or a
failed invariant probe) is absorbed by rebuilding the index from the
surviving window contents, and the healed monitor answers exactly like
a never-failed one — because the indexes are pure functions of the
arrival sequence.  The window admits a batch before the index sees it,
so a batch that fails half-way is kept exactly once, and the healed
answer carries that batch's tick.
"""

from __future__ import annotations

import pytest

from conftest import make_objects
from repro.core.ag2 import AG2Monitor
from repro.core.g2 import G2Monitor
from repro.core.naive import NaiveMonitor
from repro.core.topk import TopKAG2Monitor
from repro.errors import (
    InvariantViolationError,
    UnrecoverableMonitorError,
)
from repro.engine import StreamEngine
from repro.obs import Metrics
from repro.resilience import (
    ErrorPolicy,
    FaultInjectingSource,
    IngestGuard,
    MonitorSupervisor,
)
from repro.streams import UniformStream
from repro.window import CountWindow, TimeWindow


class FailingAG2(AG2Monitor):
    """AG2 monitor that raises mid-update on command (after the window
    has admitted the batch — exactly the corruption scenario)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.fail_next = 0

    def _on_delta(self, delta):
        if self.fail_next > 0:
            self.fail_next -= 1
            raise RuntimeError("injected index corruption")
        super()._on_delta(delta)


class BadInvariantsAG2(AG2Monitor):
    """AG2 monitor whose invariant probe can be forced to fail once."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.pretend_corrupt = False

    def check_invariants(self):
        if self.pretend_corrupt:
            self.pretend_corrupt = False
            raise InvariantViolationError("injected invariant violation")
        super().check_invariants()


class TestMonitorSupervisorHealing:
    def test_mid_update_failure_healed_and_equivalent(self):
        monitor = FailingAG2(10, 10, CountWindow(40))
        supervised = MonitorSupervisor(monitor)
        reference = NaiveMonitor(10, 10, CountWindow(40))
        batches = [make_objects(10, seed=s, domain=60.0, start_t=s * 10.0)
                   for s in range(6)]
        for i, batch in enumerate(batches):
            if i == 3:
                monitor.fail_next = 1
            got = supervised.update(batch)
            want = reference.update(batch)
            assert got.best_weight == pytest.approx(want.best_weight)
        assert supervised.failures == 1
        assert supervised.heals == 1
        # the healed instance replaced the failing one
        assert supervised.monitor is not monitor
        supervised.check_invariants()

    def test_heal_preserves_time_window_clock(self):
        monitor = FailingAG2(10, 10, TimeWindow(50.0))
        supervised = MonitorSupervisor(monitor)
        supervised.update(make_objects(5, seed=1, domain=40.0, start_t=0.0))
        monitor.fail_next = 1
        supervised.update(make_objects(5, seed=2, domain=40.0, start_t=10.0))
        assert supervised.heals == 1
        # post-heal pushes continue from the restored clock
        result = supervised.update(
            make_objects(5, seed=3, domain=40.0, start_t=20.0)
        )
        assert result.window_size == 15

    def test_invariant_probe_triggers_heal(self):
        monitor = BadInvariantsAG2(10, 10, CountWindow(30))
        supervised = MonitorSupervisor(monitor, probe_every=2)
        supervised.update(make_objects(5, seed=4, domain=50.0, start_t=0.0))
        monitor.pretend_corrupt = True
        result = supervised.update(
            make_objects(5, seed=5, domain=50.0, start_t=10.0)
        )
        assert supervised.invariant_failures == 1
        assert supervised.heals == 1
        # re-answered from the rebuilt index, at the probed batch's tick
        assert result.tick == 2 and result.window_size == 10
        assert supervised.result == result

    def test_rejected_batch_is_not_corruption(self):
        supervised = MonitorSupervisor(AG2Monitor(10, 10, TimeWindow(100.0)))
        supervised.update(make_objects(5, seed=6, domain=40.0, start_t=50.0))
        before = supervised.result
        stale = make_objects(3, seed=7, domain=40.0, start_t=0.0)
        after = supervised.update(stale)  # WindowOrderError inside
        assert supervised.batches_rejected == 1
        assert supervised.heals == 0
        assert after.best_weight == pytest.approx(before.best_weight)

    def test_heal_budget_exhaustion_raises(self):
        monitor = FailingAG2(10, 10, CountWindow(20))
        supervised = MonitorSupervisor(monitor, max_heals=0)
        monitor.fail_next = 1
        with pytest.raises(UnrecoverableMonitorError):
            supervised.update(make_objects(3, seed=8, domain=40.0))

    def test_supervisor_metrics_counters(self):
        monitor = FailingAG2(10, 10, CountWindow(20))
        supervised = MonitorSupervisor(monitor)
        metrics = Metrics()
        engine = StreamEngine(
            {"ag2": supervised}, iter(()), batch_size=4, metrics=metrics
        )
        engine.process(make_objects(4, seed=11, domain=40.0, start_t=0.0))
        monitor.fail_next = 1
        engine.process(make_objects(4, seed=12, domain=40.0, start_t=10.0))
        snap = metrics.scope("ag2").snapshot()
        assert supervised.failures == 1
        assert supervised.heals == 1
        # the monitor's own counters keep accumulating after the heal
        assert snap.counters["updates"] >= 2

    def test_healed_monitor_takes_over_stats(self):
        monitor = FailingAG2(10, 10, CountWindow(20))
        supervised = MonitorSupervisor(monitor)
        stats = supervised.stats
        supervised.update(make_objects(4, seed=11, domain=40.0, start_t=0.0))
        monitor.fail_next = 1
        supervised.update(make_objects(4, seed=12, domain=40.0, start_t=10.0))
        assert supervised.heals == 1
        assert supervised.monitor is not monitor
        assert supervised.stats is stats
        assert stats.updates == 2
        assert stats.objects_seen == 8

    def test_ingest_failure_healed(self):
        monitor = FailingAG2(10, 10, CountWindow(30))
        supervised = MonitorSupervisor(monitor)
        monitor.fail_next = 1
        supervised.ingest(make_objects(5, seed=13, domain=40.0))
        assert supervised.heals == 1
        assert len(supervised.window) == 5

    def test_supervised_survives_chaos_plus_monitor_failures(self):
        """Both fault axes at once: dirty stream AND a monitor that
        corrupts mid-run; the supervised answer still matches a naive
        recompute over the surviving window."""

        class FailingAG2(AG2Monitor):
            updates_seen = 0

            def _on_delta(self, delta):
                type(self).updates_seen += 1
                if type(self).updates_seen in (30, 70):
                    raise RuntimeError("injected corruption")
                super()._on_delta(delta)

        stream = UniformStream(domain=500.0, seed=31, dt=1.0)
        chaos = FaultInjectingSource(
            stream, seed=32, p_drop=0.03, p_corrupt=0.03, p_delay=0.04
        )
        guard = IngestGuard(chaos, policy=ErrorPolicy.QUARANTINE,
                            max_lateness=6.0)
        supervised = MonitorSupervisor(FailingAG2(40, 40, CountWindow(150)))
        engine = StreamEngine({"ag2": supervised}, guard, batch_size=10)
        report = engine.run(100)
        assert report.batches == 100
        assert supervised.heals >= 1
        contents = list(supervised.window.contents)
        naive = NaiveMonitor(40, 40, CountWindow(len(contents)))
        assert supervised.result.best_weight == pytest.approx(
            naive.update(contents).best_weight
        )


#: every monitor kind ``repro.persist`` can snapshot, i.e. every kind
#: a supervisor can heal
PERSIST_KINDS = {
    "naive": lambda window: NaiveMonitor(12, 12, window),
    "g2": lambda window: G2Monitor(12, 12, window),
    "ag2": lambda window: AG2Monitor(12, 12, window),
    "topk": lambda window: TopKAG2Monitor(12, 12, window, k=3),
}

WINDOWS = {
    "count": lambda: CountWindow(45),
    "time": lambda: TimeWindow(35.0),
}

HEAL_BATCHES = [
    make_objects(10, seed=100 + s, domain=60.0, start_t=s * 10.0)
    for s in range(12)
]


def _fail_once_at(monitor, batch: int):
    """Make ``monitor``'s index raise on the given 0-based update, after
    the window has admitted that batch."""
    calls = iter(range(len(HEAL_BATCHES) + 1))
    on_delta = monitor._on_delta

    def failing(delta):
        if next(calls) == batch:
            raise RuntimeError("injected index corruption")
        on_delta(delta)

    monitor._on_delta = failing
    return monitor


def _run_with_twin(make, fail_at):
    """Drive a supervised, once-faulted monitor and an unfaulted twin
    over the same batches; yield ``(index, got, want, supervised, twin)``
    for every batch."""
    supervised = MonitorSupervisor(_fail_once_at(make(), fail_at))
    twin = make()
    for i, batch in enumerate(HEAL_BATCHES):
        got = supervised.update(batch)
        want = twin.update(batch)
        yield i, got, want, supervised, twin
    assert supervised.failures == supervised.heals == 1


class TestHealEquivalence:
    """Heal differential: from the faulted batch on, a supervised
    monitor answers exactly like a twin that never failed."""

    @pytest.mark.parametrize("fail_at", [3, 7])
    @pytest.mark.parametrize("window", sorted(WINDOWS))
    @pytest.mark.parametrize("kind", sorted(PERSIST_KINDS))
    def test_heal_matches_unfaulted_twin(self, kind, window, fail_at):
        def make():
            return PERSIST_KINDS[kind](WINDOWS[window]())

        for i, got, want, supervised, twin in _run_with_twin(make, fail_at):
            assert got.tick == want.tick == i + 1
            if i < fail_at:
                continue
            assert got.regions == want.regions, f"batch {i}"
            assert supervised.result == got
            assert supervised.window.contents == twin.window.contents
            assert supervised.window.tick == twin.window.tick

    @pytest.mark.parametrize("fail_at", [3, 7])
    @pytest.mark.parametrize("window", sorted(WINDOWS))
    def test_approximate_heal_holds_its_guarantee(self, window, fail_at):
        """ε-aG2 prunes with a slack, so the rebuilt index may settle on
        a different region than the twin's; it must still hold (1 − ε)
        of the exact optimum."""
        epsilon = 0.2
        exact = AG2Monitor(12, 12, WINDOWS[window]())

        def make():
            return AG2Monitor(12, 12, WINDOWS[window](), epsilon=epsilon)

        for i, got, _want, supervised, twin in _run_with_twin(make, fail_at):
            best = exact.update(HEAL_BATCHES[i]).best_weight
            assert got.tick == i + 1
            if i < fail_at:
                continue
            assert got.best_weight >= (1.0 - epsilon) * best - 1e-9
            assert supervised.window.contents == twin.window.contents
