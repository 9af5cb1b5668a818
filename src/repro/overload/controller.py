"""Deadline controller and the ε-guaranteed degradation ladder.

The paper supplies the safety valve for overload: the approximate
monitor (Pruning Rules 3–4) answers with a hard ``(1-ε)`` weight
guarantee at a fraction of the exact cost, and the sampling comparator
of [25] is cheaper still (with only a probabilistic bound).  The ladder
arranges them by cost:

    exact aG2 (ε=0)  →  approx aG2 (ε₁ < ε₂ < … < εₖ)  →  sampling

:class:`DeadlineController` decides *when* to move: it tracks the
per-update latency EWMA — the same measurement the engine's
``update_ms`` histogram records — against a user latency budget, with
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

* The aG2 rungs are *one* ``AG2Monitor`` whose ``epsilon`` is dialed.
  This is sound: Theorem 1's argument is per-update — after any update
  performed with tolerance ε, every un-adopted space was pruned against
  ``(1-ε)``, so the answer satisfies the ``(1-ε)`` floor for the ε *in
  effect during that update*, regardless of history.  Transitions
  between aG2 rungs are therefore free.
* The sampling rung's window is kept warm on every update (its
  maintenance is O(batch)); entering sampling is free, and leaving it
  rebuilds the aG2 index from the surviving window contents — the same
  recovery pattern :class:`~repro.resilience.supervisor.MonitorSupervisor`
  uses to heal.  Every aG2 built for the ladder shares one
  :class:`~repro.core.monitor.MonitorStats`, the ladder's ``stats``, so
  its counts run on across rebuilds and sampling residencies.
* The ladder counts in plain attributes: ``transitions`` (one record
  per move, with its reason), ``rebuilds``, ``deescalations_deferred``,
  ``rung`` and the controller's ``latency_ewma_ms``.
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
from repro.errors import InvalidParameterError
from repro.obs.metrics import Ewma
from repro.resilience.supervisor import MonitorSupervisor
from repro.window.base import SlidingWindow

__all__ = ["AdaptiveMonitor", "DeadlineController", "LadderDecision"]

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
#: Target error sizing the sampling rung's samples.  Deliberately
#: coarse: the bottom rung exists to shed load, and O(log n / eps^2)
#: samples only beat the exact sweep when eps is large.
SAMPLING_EPSILON = 0.5


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
    structurally (``StreamEngine``, ``MultiQueryGroup``): it exposes
    ``update`` / ``ingest`` / ``result`` / ``window`` / ``stats``.
    Internally it serves from the cheapest rung that currently meets
    the latency budget and annotates every answer with the guarantee
    of the rung that produced it.

    Args:
        rect_width / rect_height: Query rectangle.
        window_factory: Zero-argument factory producing *fresh* sliding
            windows of the query's configuration (each rung monitor
            owns one; they observe identical pushes).
        budget_ms: Per-update latency budget.
        epsilon_schedule: Strictly increasing tolerances of the
            approximate rungs, each in (0, 1).
        seed: Seed of the sampling rung's private RNG.
        probe_every: When ``probe_every > 0`` the aG2 rungs run
            supervised (:class:`MonitorSupervisor`) with periodic
            invariant probes.
        latency_model: Optional ``(rung, batch_size) -> ms`` callable.
            When given, the controller is steered by *modeled* latency
            samples instead of wall-clock measurements — the soak
            harness uses this to make ladder trajectories (and hence
            whole soak reports) bit-identical across runs and hosts.
            Production serving leaves it ``None``.
    """

    SAMPLING = "sampling"
    EXACT = "exact"

    def __init__(
        self,
        rect_width: float,
        rect_height: float,
        window_factory: Callable[[], SlidingWindow],
        *,
        budget_ms: float = 50.0,
        epsilon_schedule: Sequence[float] = (0.1, 0.2, 0.4),
        seed: int = 0,
        probe_every: int = 0,
        latency_model: Callable[[int, int], float] | None = None,
    ) -> None:
        schedule = tuple(float(e) for e in epsilon_schedule)
        if not schedule:
            raise InvalidParameterError(
                "epsilon_schedule needs at least one tolerance"
            )
        for eps in schedule:
            if not (0.0 < eps < 1.0):
                raise InvalidParameterError(
                    "approximate monitoring needs 0 < epsilon < 1, "
                    f"got {eps} in schedule {schedule}"
                )
        if list(schedule) != sorted(set(schedule)):
            raise InvalidParameterError(
                f"epsilon_schedule must be strictly increasing, got {schedule}"
            )
        self.rect_width = float(rect_width)
        self.rect_height = float(rect_height)
        self._window_factory = window_factory
        self.epsilon_schedule = schedule
        self.controller = DeadlineController(budget_ms)
        self.probe_every = int(probe_every)
        self.latency_model = latency_model
        # rung 0 = exact, rungs 1..k = approx(εᵢ), rung k+1 = sampling
        self.mode_names: tuple[str, ...] = (
            (self.EXACT,)
            + tuple(f"approx({eps:g})" for eps in schedule)
            + (self.SAMPLING,)
        )
        self._rung = 0
        self._ag2_stale = False
        # the aG2 lineage's counters, in every rung: each rebuilt aG2
        # takes this object over, so counts never move backwards
        self.stats = MonitorStats()
        self._ag2 = self._make_ag2(0.0)
        self._sampler = SamplingMonitor(
            rect_width,
            rect_height,
            window_factory(),
            epsilon=SAMPLING_EPSILON,
            seed=seed,
        )
        self._last = MaxRSResult()
        self._updates = 0
        self._backlog = 0
        self.deescalations_deferred = 0
        self.rebuilds = 0
        self.transitions: List[Dict[str, object]] = []
        self.residency: Dict[str, int] = {name: 0 for name in self.mode_names}

    # -- rung bookkeeping ----------------------------------------------------

    @property
    def sampling_rung(self) -> int:
        return len(self.epsilon_schedule) + 1

    @property
    def rung(self) -> int:
        return self._rung

    @property
    def mode(self) -> str:
        return self.mode_names[self._rung]

    @property
    def guarantee(self) -> float:
        """Deterministic weight floor of the current rung."""
        if self._rung == 0:
            return 1.0
        if self._rung == self.sampling_rung:
            return 0.0
        return 1.0 - self.epsilon_schedule[self._rung - 1]

    def _rung_epsilon(self, rung: int) -> float:
        return 0.0 if rung == 0 else self.epsilon_schedule[rung - 1]

    # -- monitor construction ------------------------------------------------

    def _make_ag2(self, epsilon: float) -> MaxRSMonitor:
        monitor: MaxRSMonitor = AG2Monitor(
            self.rect_width,
            self.rect_height,
            self._window_factory(),
            epsilon=epsilon,
        )
        monitor.stats = self.stats
        if self.probe_every > 0:
            monitor = MonitorSupervisor(  # type: ignore[assignment]
                monitor, probe_every=self.probe_every
            )
        return monitor

    def _ag2_core(self) -> AG2Monitor:
        inner = self._ag2
        if isinstance(inner, MonitorSupervisor):
            inner = inner.monitor
        return inner  # type: ignore[return-value]

    # -- monitor surface -----------------------------------------------------

    @property
    def window(self) -> SlidingWindow:
        """The authoritative window: the sampling rung's, which stays
        warm in every mode (the aG2 window goes stale during sampling
        residency)."""
        return self._sampler.window

    @property
    def result(self) -> MaxRSResult:
        return self._last

    def checkpoint_target(self) -> MaxRSMonitor:
        """The ladder's persistable view, for :mod:`repro.persist`.

        The ladder itself is not a snapshot kind, but its state *is*
        its authoritative window (the index is derived); a NaiveMonitor
        over that same window captures exactly the configuration +
        window contents a checkpoint needs, and restores cheaply
        (naive ingest is a window push, no sweep).
        """
        return NaiveMonitor(
            self.rect_width, self.rect_height, self._sampler.window
        )

    def check_invariants(self) -> None:
        if self._rung != self.sampling_rung and not self._ag2_stale:
            probe = getattr(self._ag2, "check_invariants", None)
            if probe is not None:
                probe()

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
            self._rebuild_ag2(self._rung_epsilon(self._rung))

    def ingest(self, objects: Sequence[SpatialObject]) -> None:
        """Bulk-load (priming, backfill) every warm rung."""
        if self._rung != self.sampling_rung and not self._ag2_stale:
            self._ag2.ingest(objects)
        self._sampler.ingest(objects)

    def update(self, objects: Sequence[SpatialObject]) -> MaxRSResult:
        """Push one arrival batch through the current rung.

        The update is timed internally (the same quantity the engine's
        ``update_ms`` histogram observes), the latency sample drives the
        controller, and the answer carries the producing rung's
        contract.  The controller steers *after* the answer exists, so
        a move it makes applies from the next update on: the rung
        (:attr:`mode`) can already differ from ``result.mode``.
        """
        self._updates += 1
        if self._rung != self.sampling_rung and self._ag2_stale:
            # rebuild before the clock starts: a full-window re-ingest is
            # recovery cost, not steady-state cost, and timing it would
            # hand the controller a spurious panic sample
            self._rebuild_ag2(self._rung_epsilon(self._rung))
        serving_rung = self._rung
        start = time.perf_counter()
        if self._rung == self.sampling_rung:
            result = self._sampler.update(objects)
        else:
            result = self._ag2.update(objects)
            self._sampler.ingest(objects)
        if self.latency_model is not None:
            elapsed_ms = float(self.latency_model(serving_rung, len(objects)))
        else:
            elapsed_ms = (time.perf_counter() - start) * 1000.0
        self._last = result
        self.residency[self.mode] += 1
        self._steer(elapsed_ms)
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
            # the sampler's window is warm; the aG2 index stops being
            # maintained from here on
            self._ag2_stale = True
        elif not self._ag2_stale:
            # aG2 → aG2: dialing ε is free (Theorem 1 is per-update)
            self._ag2_core().epsilon = self._rung_epsilon(rung)
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

    def _rebuild_ag2(self, epsilon: float) -> None:
        """Re-enter an aG2 rung: rebuild the index from the warm window."""
        self._ag2 = self._make_ag2(epsilon)
        survivors = list(self._sampler.window.contents)
        if survivors:
            self._ag2.ingest(survivors)
        self._ag2_stale = False
        self.rebuilds += 1
