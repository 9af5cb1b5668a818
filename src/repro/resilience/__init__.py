"""Fault-tolerant streaming substrate.

The paper's algorithms assume a clean, ordered, uninterrupted stream;
production serving cannot.  This package wraps the existing pipeline
in the three layers a long-running deployment needs, without touching
the algorithms themselves:

* :class:`IngestGuard` + :class:`DeadLetterQueue` — validate each
  batch of records at the boundary under an :class:`ErrorPolicy`,
  quarantine rejects, and absorb bounded-lateness out-of-order
  arrivals through a :class:`ReorderBuffer` watermark buffer; a driver
  hands the admitted objects on to ``StreamEngine.process``;
* :class:`CheckpointManager` — periodic atomic snapshots with
  load-last-checkpoint + replay-tail crash recovery;
* :class:`FaultInjectingSource` — a seeded chaos wrapper (drop,
  duplicate, corrupt, delay) behind the fault mix of every
  ``maxrs-stream soak`` scenario.

A corrupted index heals inside the degradation ladder
(:class:`~repro.overload.controller.AdaptiveMonitor`), whose one
rebuild re-indexes its window.

See ``docs/RESILIENCE.md`` for policies, watermark semantics, the
checkpoint format, and the recovery guarantees.
"""

from repro.resilience.chaos import FaultInjectingSource
from repro.resilience.checkpoint import CheckpointManager
from repro.resilience.dlq import DeadLetter, DeadLetterQueue, ErrorPolicy
from repro.resilience.guard import IngestGuard, coerce_record
from repro.resilience.reorder import ReorderBuffer

__all__ = [
    "CheckpointManager",
    "DeadLetter",
    "DeadLetterQueue",
    "ErrorPolicy",
    "FaultInjectingSource",
    "IngestGuard",
    "ReorderBuffer",
    "coerce_record",
]
