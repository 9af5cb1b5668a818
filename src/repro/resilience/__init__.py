"""Fault-tolerant streaming substrate.

The paper's algorithms assume a clean, ordered, uninterrupted stream;
production serving cannot.  This package wraps the existing pipeline
in the four layers a long-running deployment needs, without touching
the algorithms themselves:

* :class:`IngestGuard` + :class:`DeadLetterQueue` — validate records
  at the boundary under an :class:`ErrorPolicy`, quarantine rejects,
  and absorb bounded-lateness out-of-order arrivals through a
  :class:`ReorderBuffer` watermark buffer;
* :class:`MonitorSupervisor` — catch mid-update failures and
  invariant violations, and self-heal by rebuilding the index from the
  surviving window;
* :class:`CheckpointManager` — periodic atomic snapshots with
  load-last-checkpoint + replay-tail crash recovery;
* :class:`FaultInjectingSource` — a seeded chaos wrapper (drop,
  duplicate, corrupt, delay) behind the fault mix of every
  ``maxrs-stream soak`` scenario.

See ``docs/RESILIENCE.md`` for policies, watermark semantics, the
checkpoint format, and the recovery guarantees.
"""

from repro.resilience.chaos import FaultInjectingSource
from repro.resilience.checkpoint import CheckpointManager
from repro.resilience.dlq import DeadLetter, DeadLetterQueue, ErrorPolicy
from repro.resilience.guard import IngestGuard, coerce_record
from repro.resilience.reorder import ReorderBuffer
from repro.resilience.supervisor import MonitorSupervisor

__all__ = [
    "CheckpointManager",
    "DeadLetter",
    "DeadLetterQueue",
    "ErrorPolicy",
    "FaultInjectingSource",
    "IngestGuard",
    "MonitorSupervisor",
    "ReorderBuffer",
    "coerce_record",
]
