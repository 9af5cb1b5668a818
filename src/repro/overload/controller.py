"""Deadline controller and the ε-guaranteed degradation ladder.

The paper supplies the safety valve for overload: the approximate
monitor (Pruning Rules 3–4) answers with a hard ``(1-ε)`` weight
guarantee at a fraction of the exact cost, and the sampling comparator
of [25] is cheaper still (with only a probabilistic bound).  The ladder
arranges them by cost:

    exact aG2  →  aG2 at ε = 0.2  →  aG2 at ε = 0.4  →  sampling

:class:`DeadlineController` decides *when* to move: it tracks the
per-update latency EWMA — the same wall time the engine records per
update in ``StreamEngine.timings`` — against a user latency budget, with
hysteresis (separate high/low watermarks, consecutive-sample counters,
a minimum residency before stepping back down) so one slow batch does
not cause mode flapping.  A single catastrophic sample (``PANIC_FACTOR``
× budget) jumps straight to the cheapest rung: during a 10× burst, one
over-budget update is information enough, and p95 latency cannot afford
an escalation staircase.  The tuning is a set of module constants, not
options: one setting serves every caller (``docs/OVERLOAD.md`` lists
them and why they have the values they do).

:class:`AdaptiveMonitor` is the monitor-shaped wrapper that walks the
ladder.  Implementation notes:

* The aG2 rungs are *one* ``AG2Monitor`` whose ``epsilon`` is dialed
  along the fixed schedule :data:`EPSILONS`.  This is sound: Theorem
  1's argument is per-update — after any update performed with
  tolerance ε, every un-adopted space was pruned against ``(1-ε)``, so
  the answer satisfies the ``(1-ε)`` floor for the ε *in effect during
  that update*, regardless of history.  Transitions between aG2 rungs
  are therefore free.
* The ladder owns one window.  Each batch is pushed once and the rung
  that serves it is fed the delta (:meth:`MaxRSMonitor.apply`); the
  sampling rung keeps no state beyond that window, so entering
  sampling is free.
* There is one rebuild: a fresh aG2 indexes the window's contents as
  one arrival delta, without a push, so answers keep the window's
  tick.  Leaving sampling runs it, and so does a heal — an exception
  raised by the aG2 rung mid-update, or a failed ``check_invariants``
  probe every ``probe_every`` updates.  The window admitted the batch
  before the index saw it, so a healed update holds it exactly once.
  Every aG2 built for the ladder shares one
  :class:`~repro.core.monitor.MonitorStats`, the ladder's ``stats``, so
  its counts run on across rebuilds and sampling residencies.
* The ladder counts in plain attributes: ``transitions`` (one record
  per move, with its reason), ``rebuilds`` (re-entries and heals),
  ``deescalations_deferred``, ``rung`` and the controller's
  ``latency_ewma_ms``.
* Every answer carries its contract in the result (``mode``,
  ``guarantee``), so downstream consumers can tell what they got
  without knowing the ladder exists.  The ladder steers after the
  answer is produced, so judge an answer by ``result.mode``, never by
  the ladder's current rung.
"""

from __future__ import annotations

import enum
import time
from typing import Callable, Dict, List, Sequence

from repro.core.ag2 import AG2Monitor
from repro.core.monitor import MaxRSMonitor, MonitorStats
from repro.core.naive import NaiveMonitor
from repro.core.objects import SpatialObject
from repro.core.sampling import SamplingMonitor
from repro.core.spaces import MaxRSResult
from repro.errors import InvalidParameterError, InvariantViolationError
from repro.obs.metrics import Ewma
from repro.window.base import SlidingWindow, WindowUpdate

__all__ = ["AdaptiveMonitor", "DeadlineController", "EPSILONS", "LadderDecision"]

# Controller tuning.  One setting serves every campaign; the values are
# the ones the overload_wall soak was tuned on (10x flash crowds against
# a budget of 3x the calibrated exact cost).
#: EWMA weight of the newest latency sample: half-life of one update,
#: so a burst shows up in the average on its first batch.
ALPHA = 0.5
#: Escalation watermark: pressure builds while ``ewma > 0.85 * budget``.
HIGH_FRACTION = 0.85
#: De-escalation watermark: headroom builds while ``ewma < 0.5 * budget``.
#: The dead band between the two is the hysteresis that stops flapping;
#: 0.85 / 0.5 leaves room for the next rung up to cost 1.7x this one.
LOW_FRACTION = 0.5
#: Consecutive watermark breaches before escalating: one, since p95
#: cannot afford to wait out a burst.
ESCALATE_AFTER = 1
#: Consecutive clears before stepping back down one rung.
DEESCALATE_AFTER = 2
#: Observations a rung must serve before the controller steps *down*
#: (escalation is never delayed).
MIN_RESIDENCY = 3
#: A single sample over ``1.6 * budget`` jumps to the cheapest rung.
PANIC_FACTOR = 1.6
#: Tolerances of the approximate rungs, cheapest last.  ε = 0.1 is no
#: rung: on ``synthetic`` it was measured no cheaper than exact, by mean
#: or by max (docs/OVERLOAD.md).
EPSILONS = (0.2, 0.4)
#: Target error sizing the sampling rung's samples.  Deliberately
#: coarse: the bottom rung exists to shed load, and O(log n / eps^2)
#: samples only beat the exact sweep when eps is large.
SAMPLING_EPSILON = 0.5


def _rung_epsilon(rung: int) -> float:
    """The ε an aG2 rung runs at: 0 for exact, ``EPSILONS[rung - 1]``
    for an approximate rung."""
    return 0.0 if rung == 0 else EPSILONS[rung - 1]


class LadderDecision(enum.Enum):
    """What the controller wants done after one latency observation."""

    HOLD = "hold"
    ESCALATE = "escalate"  # one rung cheaper
    DEESCALATE = "deescalate"  # one rung more accurate
    PANIC = "panic"  # jump to the cheapest rung now


class DeadlineController:
    """Hysteresis controller: latency EWMA vs. a latency budget.

    The tuning is fixed by the module constants (see their comments);
    only the budget is per-deployment.

    Args:
        budget_ms: Per-update latency budget the ladder must defend.
    """

    def __init__(self, budget_ms: float) -> None:
        if budget_ms <= 0:
            raise InvalidParameterError(
                f"latency budget must be positive, got {budget_ms}"
            )
        self.budget_ms = float(budget_ms)
        self.ewma = Ewma("latency_ewma_ms", alpha=ALPHA)
        self._breaches = 0
        self._clears = 0
        self._residency = 0

    @property
    def latency_ewma_ms(self) -> float:
        return self.ewma.value

    def observe(self, elapsed_ms: float, backlog: int = 0) -> LadderDecision:
        """Feed one per-update latency sample; get a ladder decision.

        ``backlog`` counts the objects the upstream queue could not
        serve when the sample was taken (queued, held over or shed).
        Only a backlog earns :attr:`LadderDecision.PANIC`: the jump to
        the cheapest rung sheds load, and with nothing waiting an
        over-budget sample is a hiccup of the host, which the EWMA and
        the one-rung staircase absorb.
        """
        value = self.ewma.observe(elapsed_ms)
        self._residency += 1
        if backlog > 0 and elapsed_ms > PANIC_FACTOR * self.budget_ms:
            return LadderDecision.PANIC
        if value > HIGH_FRACTION * self.budget_ms:
            self._breaches += 1
            self._clears = 0
            if self._breaches >= ESCALATE_AFTER:
                # severity-aware: if escalation is due under a backlog
                # while the raw sample is already past the *full*
                # budget (not just the watermark), single-rung steps
                # would spend one over-budget p95 sample per rung —
                # jump to the cheapest rung instead.  Gradual pressure
                # (EWMA over the watermark, samples still inside the
                # budget) keeps the one-rung staircase.
                if backlog > 0 and elapsed_ms > self.budget_ms:
                    return LadderDecision.PANIC
                return LadderDecision.ESCALATE
        elif value < LOW_FRACTION * self.budget_ms:
            self._clears += 1
            self._breaches = 0
            if (
                self._clears >= DEESCALATE_AFTER
                and self._residency >= MIN_RESIDENCY
            ):
                return LadderDecision.DEESCALATE
        else:  # dead band: hysteresis — consecutive runs restart
            self._breaches = 0
            self._clears = 0
        return LadderDecision.HOLD

    def note_transition(self) -> None:
        """The ladder moved; restart counters for the new mode."""
        self._breaches = 0
        self._clears = 0
        self._residency = 0


class AdaptiveMonitor:
    """Monitor-shaped degradation ladder under a latency budget.

    Drop-in wherever the library consumes a :class:`MaxRSMonitor`
    structurally (``StreamEngine``): it exposes
    ``update`` / ``ingest`` / ``result`` / ``window`` / ``stats``.
    Internally it serves from the cheapest rung that currently meets
    the latency budget and annotates every answer with the guarantee
    of the rung that produced it.

    Args:
        rect_width / rect_height: Query rectangle.
        window: The ladder's one sliding window.  The ladder takes
            ownership: every batch is pushed here once, and the rung
            that serves it is fed the delta.
        budget_ms: Per-update latency budget.
        seed: Seed of the sampling rung's private RNG.
        probe_every: When ``probe_every > 0``, every N-th batch an aG2
            rung indexes is followed by a ``check_invariants`` probe; a
            failed probe heals the rung.
        latency_model: Optional ``(rung, batch_size) -> ms`` callable.
            When given, the controller is steered by *modeled* latency
            samples instead of wall-clock measurements — the soak
            harness uses this to make ladder trajectories (and hence
            whole soak reports) bit-identical across runs and hosts.
            Production serving leaves it ``None``.
    """

    SAMPLING = "sampling"
    EXACT = "exact"
    # rung 0 = exact, 1 = approx(0.2), 2 = approx(0.4), 3 = sampling
    mode_names: tuple[str, ...] = (
        (EXACT,) + tuple(f"approx({eps:g})" for eps in EPSILONS) + (SAMPLING,)
    )
    sampling_rung = len(EPSILONS) + 1

    def __init__(
        self,
        rect_width: float,
        rect_height: float,
        window: SlidingWindow,
        *,
        budget_ms: float = 50.0,
        seed: int = 0,
        probe_every: int = 0,
        latency_model: Callable[[int, int], float] | None = None,
    ) -> None:
        self.rect_width = float(rect_width)
        self.rect_height = float(rect_height)
        self.window = window
        self.controller = DeadlineController(budget_ms)
        self.probe_every = max(0, int(probe_every))
        self.latency_model = latency_model
        self._rung = 0
        # the counters of every rung: each rebuilt aG2 and the sampler
        # count into this one object, so counts never move backwards
        self.stats = MonitorStats()
        self._ag2 = self._make_ag2(0.0)
        self._ag2_stale = False
        self._since_probe = 0
        self._sampler = SamplingMonitor(
            rect_width,
            rect_height,
            window,
            epsilon=SAMPLING_EPSILON,
            seed=seed,
        )
        self._sampler.stats = self.stats
        self._last = MaxRSResult()
        self._updates = 0
        self._backlog = 0
        self.deescalations_deferred = 0
        self.rebuilds = 0
        self.transitions: List[Dict[str, object]] = []
        self.residency: Dict[str, int] = {name: 0 for name in self.mode_names}

    # -- rung bookkeeping ----------------------------------------------------

    @property
    def rung(self) -> int:
        return self._rung

    @property
    def mode(self) -> str:
        return self.mode_names[self._rung]

    @property
    def guarantee(self) -> float:
        """Deterministic weight floor of the current rung."""
        if self._rung == self.sampling_rung:
            return 0.0
        return 1.0 - _rung_epsilon(self._rung)

    def _ag2_serves(self) -> bool:
        return self._rung != self.sampling_rung and not self._ag2_stale

    # -- monitor surface -----------------------------------------------------

    @property
    def result(self) -> MaxRSResult:
        return self._last

    def checkpoint_target(self) -> MaxRSMonitor:
        """The ladder's persistable view, for :mod:`repro.persist`.

        The ladder itself is not a snapshot kind, but its state *is*
        its window (the index is derived); a NaiveMonitor over that
        same window captures exactly the configuration + window
        contents a checkpoint needs, and restores cheaply (naive ingest
        is a window push, no sweep).
        """
        return NaiveMonitor(self.rect_width, self.rect_height, self.window)

    def check_invariants(self) -> None:
        if self._ag2_serves():
            self._ag2.check_invariants()

    # -- serving -------------------------------------------------------------

    def note_pressure(self, backlog: int) -> None:
        """Upstream pressure signal: before each batch the driver
        reports the objects its queue could not serve at once — still
        queued, held over upstream, or shed since the previous batch.
        A backlog is what licenses a panic (see
        :meth:`DeadlineController.observe`), and recovery is deferred
        while one exists: stepping up to a pricier rung mid-drain just
        re-creates the overload that built the backlog, and the rebuild
        that re-entry from sampling costs is wasted.

        A drained queue is also the moment to pay outstanding recovery
        debt: a pending aG2 rebuild runs here, in the slack between
        batches, rather than inside the next timed update.
        """
        self._backlog = max(0, int(backlog))
        if (
            self._backlog == 0
            and self._ag2_stale
            and self._rung != self.sampling_rung
        ):
            self._rebuild()

    def ingest(self, objects: Sequence[SpatialObject]) -> None:
        """Bulk-load (priming, backfill): one push, indexed by a warm
        aG2 rung."""
        delta = self.window.push(objects)
        if self._ag2_serves():
            self._serve_ag2(delta)

    def update(self, objects: Sequence[SpatialObject]) -> MaxRSResult:
        """Push one arrival batch through the current rung.

        The update is timed internally (the same quantity the engine
        records in ``StreamEngine.timings``), the latency sample drives
        the controller, and the answer carries the producing rung's
        contract.  The controller steers *after* the answer exists, so
        a move it makes applies from the next update on: the rung
        (:attr:`mode`) can already differ from ``result.mode``.  A batch
        the window refuses (:class:`~repro.errors.WindowOrderError`)
        propagates with the window and the answer unchanged.
        """
        if self._rung != self.sampling_rung and self._ag2_stale:
            # rebuild before the clock starts: a full-window re-index is
            # recovery cost, not steady-state cost, and timing it would
            # hand the controller a spurious panic sample
            self._rebuild()
        serving_rung = self._rung
        start = time.perf_counter()
        delta = self.window.push(objects)
        self._updates += 1
        if serving_rung == self.sampling_rung:
            result = self._sampler.apply(delta)
        else:
            result = self._serve_ag2(delta)
        if self.latency_model is not None:
            elapsed_ms = float(self.latency_model(serving_rung, len(objects)))
        else:
            elapsed_ms = (time.perf_counter() - start) * 1000.0
        self._last = result
        self.residency[self.mode] += 1
        self._steer(elapsed_ms)
        return result

    def _serve_ag2(self, delta: WindowUpdate) -> MaxRSResult:
        """Feed the aG2 rung one delta the window already holds; heal
        the rung when it raises or a due probe fails.

        Either way the window keeps the batch exactly once, and the
        heal's rebuild answers at the window's tick.
        """
        try:
            result = self._ag2.apply(delta)
        except Exception:  # the index broke mid-update
            return self._rebuild()
        if self.probe_every:
            self._since_probe += 1
            if self._since_probe >= self.probe_every:
                self._since_probe = 0
                try:
                    self._ag2.check_invariants()
                except InvariantViolationError:
                    return self._rebuild()
        return result

    def _steer(self, elapsed_ms: float) -> None:
        """Feed one latency sample to the controller, apply its move."""
        decision = self.controller.observe(elapsed_ms, self._backlog)
        if decision is LadderDecision.PANIC:
            if self._rung != self.sampling_rung:
                self._transition(self.sampling_rung, "panic")
        elif decision is LadderDecision.ESCALATE:
            if self._rung < self.sampling_rung:
                self._transition(self._rung + 1, "deadline_pressure")
        elif decision is LadderDecision.DEESCALATE:
            if self._backlog > 0:
                # headroom is real but the queue is still draining —
                # hold the cheap rung until the backlog is gone (the
                # controller's clear-counter stays primed, so recovery
                # begins on the first clear sample afterwards)
                self.deescalations_deferred += 1
            elif self._rung > 0:
                self._transition(self._rung - 1, "headroom")

    # -- transitions ---------------------------------------------------------

    def _transition(self, rung: int, reason: str) -> None:
        from_mode = self.mode
        if rung == self._rung:
            return
        if rung == self.sampling_rung:
            # the sampler reads the same window; the aG2 index stops
            # being maintained from here on
            self._ag2_stale = True
        elif not self._ag2_stale:
            # aG2 → aG2: dialing ε is free (Theorem 1 is per-update)
            self._ag2.epsilon = _rung_epsilon(rung)
        # else: leaving sampling with a stale index — the rebuild is
        # deferred to the next idle moment (note_pressure with an empty
        # queue) or, failing that, the top of the next update
        self._rung = rung
        self.controller.note_transition()
        self.transitions.append(
            {
                "update": self._updates,
                "from": from_mode,
                "to": self.mode,
                "reason": reason,
            }
        )

    def _make_ag2(self, epsilon: float) -> AG2Monitor:
        monitor = AG2Monitor(
            self.rect_width, self.rect_height, self.window, epsilon=epsilon
        )
        monitor.stats = self.stats
        return monitor

    def _rebuild(self) -> MaxRSResult:
        """The ladder's one rebuild, for re-entry from sampling and for
        a heal: a fresh aG2 at the current rung's ε indexes the window's
        contents as one arrival delta — no push, so the window keeps
        its tick — and answers at that tick."""
        self._ag2 = self._make_ag2(_rung_epsilon(self._rung))
        self._ag2_stale = False
        self._since_probe = 0
        self.rebuilds += 1
        window = self.window
        return self._ag2.apply(
            WindowUpdate(arrived=window.contents, tick=window.tick)
        )
