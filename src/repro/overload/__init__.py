"""Overload protection: backpressure, load shedding, graceful degradation.

PR 2 (``repro.resilience``) hardened the pipeline against *dirty*
streams; this package protects it against *fast* ones — the regime of
the paper's generation-rate experiment (Fig. 8), where arrival rate
outruns the monitor's update latency and queues diverge.  Four pieces
compose into an overload story with explicit, conserved accounting:

* :class:`~repro.overload.backpressure.BackpressureQueue` — a bounded
  arrival buffer at the engine boundary with batch coalescing and an
  explicit shed policy (``BLOCK`` / ``SHED_OLDEST`` / ``SHED_NEWEST``);
  every object is tracked in a conservation ledger
  (``offered == processed + shed + refused + pending``).
* :class:`~repro.overload.controller.DeadlineController` — hysteresis
  controller over the per-update latency EWMA (the same measurement the
  ``update_ms`` histogram records) against a user latency budget.
* :class:`~repro.overload.controller.AdaptiveMonitor` — the
  ε-guaranteed degradation ladder the controller walks: exact
  ``AG2Monitor`` → approximate monitoring with escalating ε →
  ``SamplingMonitor`` as last resort, and back down when headroom
  returns.  Every answer carries its current guarantee in the result.
* :class:`~repro.overload.breaker.CircuitBreaker` — closed/open/half-
  open protection around a monitor; while open the last known-good
  answer is served with a staleness tick.

The ``overload_wall`` and ``dirty_overload`` soak scenarios
(:mod:`repro.soak`) drive this layer end to end.  See
``docs/OVERLOAD.md``.
"""

from repro.overload.backpressure import BackpressureQueue, ShedPolicy
from repro.overload.breaker import BreakerState, CircuitBreaker
from repro.overload.controller import (
    AdaptiveMonitor,
    DeadlineController,
    LadderDecision,
)

__all__ = [
    "AdaptiveMonitor",
    "BackpressureQueue",
    "BreakerState",
    "CircuitBreaker",
    "DeadlineController",
    "LadderDecision",
    "ShedPolicy",
]
