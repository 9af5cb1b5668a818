"""Overload protection: backpressure, load shedding, graceful degradation.

PR 2 (``repro.resilience``) hardened the pipeline against *dirty*
streams; this package protects it against *fast* ones — the regime of
the paper's generation-rate experiment (Fig. 8), where arrival rate
outruns the monitor's update latency and queues diverge.  Three pieces
compose into one overload path with explicit, conserved accounting:

* :class:`~repro.overload.backpressure.BackpressureQueue` — a bounded
  arrival buffer at the engine boundary with batch coalescing and an
  explicit shed policy (``BLOCK`` / ``SHED_OLDEST``); every object is
  tracked in a conservation ledger
  (``offered == processed + shed + refused + spilled + pending``).
* :class:`~repro.overload.controller.DeadlineController` — hysteresis
  controller over the per-update latency EWMA (the same measurement the
  ``update_ms`` histogram records) against a user latency budget.
* :class:`~repro.overload.controller.AdaptiveMonitor` — the
  ε-guaranteed degradation ladder the controller walks: exact
  ``AG2Monitor`` → approximate monitoring with escalating ε on the same
  index → ``SamplingMonitor`` as last resort, and back down when
  headroom returns.  Every answer carries its guarantee in the result.

The driver composes them: ``IngestGuard`` → ``BackpressureQueue`` →
``StreamEngine.process`` → ``AdaptiveMonitor``, reporting the queue's
backlog to the ladder through ``note_pressure`` before each batch.  The
soak harness (:mod:`repro.soak`, scenarios ``overload_wall`` and
``dirty_overload``) is that driver.  See ``docs/OVERLOAD.md``.
"""

from repro.overload.backpressure import BackpressureQueue, ShedPolicy
from repro.overload.controller import (
    AdaptiveMonitor,
    DeadlineController,
    LadderDecision,
)

__all__ = [
    "AdaptiveMonitor",
    "BackpressureQueue",
    "DeadlineController",
    "LadderDecision",
    "ShedPolicy",
]
