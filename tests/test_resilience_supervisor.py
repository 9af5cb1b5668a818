"""Supervision tests: the degradation ladder heals its aG2 rung.

The ladder (:class:`~repro.overload.AdaptiveMonitor`) is the one
composition that supervises a monitor.  A mid-update exception raised
by its aG2 rung, or a failed invariant probe, is absorbed by the
ladder's one rebuild: a fresh aG2 re-indexes the window's contents
without a second push.  The window admits a batch before the index sees
it, so a batch that fails half-way is kept exactly once, the healed
answer carries that batch's tick, and from then on the ladder answers
exactly like a never-failed twin — because the indexes are pure
functions of the arrival sequence.
"""

from __future__ import annotations

import pytest

from conftest import guarded_batches, make_objects
from repro.core.ag2 import AG2Monitor
from repro.core.g2 import G2Monitor
from repro.core.naive import NaiveMonitor
from repro.core.topk import TopKAG2Monitor
from repro.errors import InvariantViolationError, WindowOrderError
from repro.engine import StreamEngine
from repro.overload import AdaptiveMonitor
from repro.resilience import ErrorPolicy, FaultInjectingSource, IngestGuard
from repro.streams import UniformStream
from repro.window import CountWindow, TimeWindow


def make_ladder(side, window, **kwargs) -> AdaptiveMonitor:
    """A ladder held on the exact rung: every modeled sample clears the
    de-escalation watermark, and exact has no rung below it."""
    kwargs.setdefault("latency_model", lambda rung, batch: 0.0)
    return AdaptiveMonitor(side, side, window, budget_ms=10_000.0, **kwargs)


def fail_next_update(ladder: AdaptiveMonitor) -> None:
    """Make the ladder's current aG2 index raise on its next delta,
    after the window has admitted the batch; a rebuilt index is sound."""
    monitor = ladder._ag2

    def failing(delta):
        monitor._on_delta = type(monitor)._on_delta.__get__(monitor)
        raise RuntimeError("injected index corruption")

    monitor._on_delta = failing


class TestMonitorSupervisorHealing:
    def test_mid_update_failure_healed_and_equivalent(self):
        ladder = make_ladder(10, CountWindow(40))
        reference = NaiveMonitor(10, 10, CountWindow(40))
        batches = [make_objects(10, seed=s, domain=60.0, start_t=s * 10.0)
                   for s in range(6)]
        for i, batch in enumerate(batches):
            if i == 3:
                faulted = ladder._ag2
                fail_next_update(ladder)
            got = ladder.update(batch)
            want = reference.update(batch)
            assert got.best_weight == pytest.approx(want.best_weight)
            assert got.tick == ladder.window.tick == i + 1
        assert ladder.rebuilds == 1
        # the healed instance replaced the failing one, over the same
        # window, which holds the faulted batch exactly once
        assert ladder._ag2 is not faulted
        assert ladder.window.contents == reference.window.contents
        ladder.check_invariants()

    def test_heal_preserves_time_window_clock(self):
        ladder = make_ladder(10, TimeWindow(50.0))
        ladder.update(make_objects(5, seed=1, domain=40.0, start_t=0.0))
        fail_next_update(ladder)
        ladder.update(make_objects(5, seed=2, domain=40.0, start_t=10.0))
        assert ladder.rebuilds == 1
        # post-heal pushes continue on the one window's clock
        result = ladder.update(
            make_objects(5, seed=3, domain=40.0, start_t=20.0)
        )
        assert result.window_size == 15
        assert result.tick == ladder.window.tick == 3

    def test_invariant_probe_triggers_heal(self):
        ladder = make_ladder(10, CountWindow(30), probe_every=2)
        ladder.update(make_objects(5, seed=4, domain=50.0, start_t=0.0))
        probed = ladder._ag2

        def corrupt():
            raise InvariantViolationError("injected invariant violation")

        probed.check_invariants = corrupt
        result = ladder.update(
            make_objects(5, seed=5, domain=50.0, start_t=10.0)
        )
        assert ladder.rebuilds == 1
        assert ladder._ag2 is not probed
        # re-answered from the rebuilt index, at the probed batch's tick
        assert result.tick == 2 and result.window_size == 10
        assert ladder.result == result

    def test_rejected_batch_is_not_corruption(self):
        """A batch the window refuses changes nothing, so nothing heals:
        :class:`WindowOrderError` propagates with the window and the
        answer unchanged, probes on or off."""
        for probe_every in (0, 25):
            ladder = make_ladder(
                10, TimeWindow(100.0), probe_every=probe_every
            )
            ladder.update(make_objects(5, seed=6, domain=40.0, start_t=50.0))
            before = ladder.result
            contents = ladder.window.contents
            stale = make_objects(3, seed=7, domain=40.0, start_t=0.0)
            with pytest.raises(WindowOrderError):
                ladder.update(stale)
            assert ladder.rebuilds == 0
            assert ladder.result is before
            assert ladder.window.contents == contents
            assert ladder.window.tick == 1
            ladder.check_invariants()
            after = ladder.update(
                make_objects(3, seed=8, domain=40.0, start_t=60.0)
            )
            assert after.tick == ladder.window.tick == 2

    def test_supervisor_metrics_counters(self):
        ladder = make_ladder(10, CountWindow(20))
        engine = StreamEngine({"ladder": ladder}, [], batch_size=4)
        engine.process(make_objects(4, seed=11, domain=40.0, start_t=0.0))
        fail_next_update(ladder)
        engine.process(make_objects(4, seed=12, domain=40.0, start_t=10.0))
        # a heal is a rebuild, and the ladder counts it there
        assert ladder.rebuilds == 1
        assert ladder.transitions == []
        assert engine.batches == 2
        assert ladder.stats.updates >= 2

    def test_healed_monitor_takes_over_stats(self):
        ladder = make_ladder(10, CountWindow(20))
        stats = ladder.stats
        ladder.update(make_objects(4, seed=11, domain=40.0, start_t=0.0))
        faulted = ladder._ag2
        fail_next_update(ladder)
        ladder.update(make_objects(4, seed=12, domain=40.0, start_t=10.0))
        assert ladder.rebuilds == 1
        assert ladder._ag2 is not faulted
        assert ladder.stats is stats and ladder._ag2.stats is stats
        # the faulted update and the rebuild's re-index both count
        assert stats.updates == 3
        assert stats.objects_seen == 4 + 4 + 8

    def test_ingest_failure_healed(self):
        ladder = make_ladder(10, CountWindow(30))
        fail_next_update(ladder)
        ladder.ingest(make_objects(5, seed=13, domain=40.0))
        assert ladder.rebuilds == 1
        assert len(ladder.window) == 5
        assert ladder.window.tick == 1
        ladder.check_invariants()

    def test_supervised_survives_chaos_plus_monitor_failures(
        self, monkeypatch
    ):
        """Both fault axes at once: dirty stream AND an aG2 rung that
        corrupts mid-run, rebuilt index included; the ladder's answer
        still matches a naive recompute over its window."""
        seen = {"n": 0}
        on_delta = AG2Monitor._on_delta

        def failing(self, delta):
            seen["n"] += 1
            if seen["n"] in (30, 70):
                raise RuntimeError("injected corruption")
            on_delta(self, delta)

        monkeypatch.setattr(AG2Monitor, "_on_delta", failing)
        stream = UniformStream(domain=500.0, seed=31, dt=1.0)
        chaos = FaultInjectingSource(
            stream, seed=32, p_drop=0.03, p_corrupt=0.03, p_delay=0.04
        )
        guard = IngestGuard(policy=ErrorPolicy.QUARANTINE, max_lateness=6.0)
        ladder = make_ladder(40, CountWindow(150))
        engine = StreamEngine({"ag2": ladder}, [], batch_size=10)
        for batch in guarded_batches(guard, chaos, 100, 10):
            engine.process(batch)
        assert engine.batches == 100
        assert ladder.rebuilds == 2
        assert ladder.result.tick == ladder.window.tick == 100
        contents = list(ladder.window.contents)
        naive = NaiveMonitor(40, 40, CountWindow(len(contents)))
        assert ladder.result.best_weight == pytest.approx(
            naive.update(contents).best_weight
        )


#: the unfaulted twins a healed ladder is compared with: every exact
#: monitor (naive is the plane-sweep oracle; top-k at k = 1 reports the
#: one best region) and a never-faulted ladder
TWINS = {
    "naive": lambda window: NaiveMonitor(12, 12, window),
    "g2": lambda window: G2Monitor(12, 12, window),
    "ag2": lambda window: AG2Monitor(12, 12, window),
    "topk": lambda window: TopKAG2Monitor(12, 12, window, k=1),
    "ladder": lambda window: make_ladder(12, window),
}

WINDOWS = {
    "count": lambda: CountWindow(45),
    "time": lambda: TimeWindow(35.0),
}

HEAL_BATCHES = [
    make_objects(10, seed=100 + s, domain=60.0, start_t=s * 10.0)
    for s in range(12)
]


def _run_with_twin(ladder, twin, fail_at):
    """Drive a once-faulted ladder and an unfaulted twin over the same
    batches; yield ``(index, got, want)`` for every batch."""
    for i, batch in enumerate(HEAL_BATCHES):
        if i == fail_at:
            fail_next_update(ladder)
        got = ladder.update(batch)
        want = twin.update(batch)
        yield i, got, want
    assert ladder.rebuilds == 1


class TestHealEquivalence:
    """Heal differential: from the faulted batch on, the ladder answers
    exactly like a twin that never failed, at the same tick."""

    @pytest.mark.parametrize("fail_at", [3, 7])
    @pytest.mark.parametrize("window", sorted(WINDOWS))
    @pytest.mark.parametrize("kind", sorted(TWINS))
    def test_heal_matches_unfaulted_twin(self, kind, window, fail_at):
        ladder = make_ladder(12, WINDOWS[window]())
        twin = TWINS[kind](WINDOWS[window]())
        for i, got, want in _run_with_twin(ladder, twin, fail_at):
            assert got.tick == want.tick == ladder.window.tick == i + 1
            if i < fail_at:
                continue
            assert got.best_weight == pytest.approx(want.best_weight)
            if kind != "naive":  # the oracle's sweep region has no anchor
                assert got.regions == want.regions, f"batch {i}"
            assert ladder.result == got
            assert ladder.window.contents == twin.window.contents

    @pytest.mark.parametrize("fail_at", [3, 7])
    @pytest.mark.parametrize("window", sorted(WINDOWS))
    def test_approximate_heal_holds_its_guarantee(self, window, fail_at):
        """ε-aG2 prunes with a slack, so the rebuilt index may settle on
        a different region than the twin's; it must still hold (1 − ε)
        of the exact optimum, and the heal keeps the rung's ε."""
        # modeled samples in the dead band: the ladder holds its rung
        ladder = make_ladder(
            12, WINDOWS[window](), latency_model=lambda rung, batch: 6_000.0
        )
        ladder._transition(1, "test")  # approx(0.2)
        exact = AG2Monitor(12, 12, WINDOWS[window]())
        for i, got, want in _run_with_twin(ladder, exact, fail_at):
            assert got.tick == i + 1
            assert got.mode == "approx"
            assert got.guarantee == pytest.approx(0.8)
            assert got.best_weight >= 0.8 * want.best_weight - 1e-9
            assert ladder.window.contents == exact.window.contents
        assert ladder._ag2.epsilon == pytest.approx(0.2)
