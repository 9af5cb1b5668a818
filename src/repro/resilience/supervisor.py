"""Self-healing supervision for monitors.

:class:`MonitorSupervisor` wraps any :class:`MaxRSMonitor` behind the
same ``update``/``ingest``/``result`` surface and adds the recovery
behaviour a long-running deployment needs:

* a mid-update exception no longer aborts the run — the supervisor
  rebuilds the index from the *surviving window contents* (an
  in-memory :func:`repro.persist.snapshot`/:func:`repro.persist.restore`
  round-trip, the same JSON state checkpoints write) and re-answers
  over the restored window at the failed update's tick;
* an optional periodic ``check_invariants()`` probe catches silent
  index corruption before it surfaces as a wrong answer, triggering
  the same heal;
* a rejected batch (``WindowOrderError`` — the window refused it
  before any index state changed) is *not* corruption: the batch is
  dropped, counted, and the previous answer stands.

Heal is a rebuild from the window, not a checkpoint + WAL-tail
restore.  An index fault leaves the process and its window alive, and
the window holds exactly the state the last checkpoint plus the WAL
tail would rebuild.  :meth:`MaxRSMonitor.update` pushes a batch to the
window before it touches the index, so a batch that fails half-way is
kept exactly once: the rebuilt index contains it, and the answer
carries its tick.

The supervisor counts in plain attributes: ``failures``,
``invariant_failures``, ``heals`` and ``batches_rejected``.

Supervision covers the index only.  The input side has no retry layer:
every soak campaign reads a non-replayable source, and a crash recovers
from checkpoint + WAL tail without reading the source again
(``docs/DURABILITY.md``).
"""

from __future__ import annotations

from typing import Sequence

from repro import persist
from repro.core.monitor import MaxRSMonitor
from repro.core.objects import SpatialObject
from repro.core.spaces import MaxRSResult
from repro.errors import (
    InvariantViolationError,
    UnrecoverableMonitorError,
    WindowOrderError,
)
from repro.window.base import SlidingWindow

__all__ = ["MonitorSupervisor"]


class MonitorSupervisor:
    """Fault-isolating wrapper around one monitor.

    Drop-in for a :class:`MaxRSMonitor` anywhere the library consumes
    one structurally (``StreamEngine``, ``MultiQueryGroup``,
    ``CheckpointManager``): it forwards ``update``/``ingest`` and
    exposes ``window``/``result``/``stats`` from the supervised
    monitor.  A healed monitor takes over the ``stats`` of the one it
    replaces, so the counts run on across heals.

    Args:
        monitor: The monitor to supervise.  Must be snapshotable by
            :mod:`repro.persist`.
        probe_every: Run ``check_invariants()`` after every N-th
            successful update (0 disables probing).  Monitors without
            the method are probed as no-ops.
        max_heals: Heal budget; one more failure past it raises
            :class:`UnrecoverableMonitorError` (None = unlimited).
    """

    def __init__(
        self,
        monitor: MaxRSMonitor,
        *,
        probe_every: int = 0,
        max_heals: int | None = None,
    ) -> None:
        self._monitor = monitor
        self.probe_every = max(0, int(probe_every))
        self.max_heals = max_heals
        self.failures = 0  # update/ingest raised mid-flight
        self.invariant_failures = 0  # probe caught corruption
        self.heals = 0  # successful index rebuilds
        self.batches_rejected = 0  # window refused the batch cleanly
        self._updates_since_probe = 0

    # -- monitor surface ---------------------------------------------------

    @property
    def monitor(self) -> MaxRSMonitor:
        """The currently live supervised monitor (changes on heal)."""
        return self._monitor

    @property
    def window(self) -> SlidingWindow:
        return self._monitor.window

    @property
    def result(self) -> MaxRSResult:
        return self._monitor.result

    @property
    def stats(self):
        return self._monitor.stats

    @property
    def rect_width(self) -> float:
        return self._monitor.rect_width

    @property
    def rect_height(self) -> float:
        return self._monitor.rect_height

    def check_invariants(self) -> None:
        """Forward to the supervised monitor (no-op when unsupported)."""
        probe = getattr(self._monitor, "check_invariants", None)
        if probe is not None:
            probe()

    # -- supervised operations ---------------------------------------------

    def update(self, objects: Sequence[SpatialObject]) -> MaxRSResult:
        """Push a batch; heal and re-answer instead of propagating."""
        try:
            result = self._monitor.update(objects)
        except WindowOrderError:
            # the window rejected the batch before any state changed:
            # drop it and keep the previous answer (an IngestGuard
            # upstream makes this path unreachable in practice)
            self.batches_rejected += 1
            return self._monitor.result
        except Exception as exc:  # index corrupted mid-update
            self.failures += 1
            self._heal(exc)
            # the window admitted the batch before the index failed: the
            # rebuild holds it, so answer at its tick without a new push
            return self._monitor.refresh()
        if self._maybe_probe():
            # the probed index produced this answer; re-answer from the
            # rebuild at the same tick
            return self._monitor.refresh()
        return self._monitor.result if result is None else result

    def ingest(self, objects: Sequence[SpatialObject]) -> None:
        """Bulk-load without an answer, with the same healing."""
        try:
            self._monitor.ingest(objects)
        except WindowOrderError:
            self.batches_rejected += 1
        except Exception as exc:
            self.failures += 1
            self._heal(exc)

    # -- healing -----------------------------------------------------------

    def _maybe_probe(self) -> bool:
        """Run the periodic probe when due; True iff it forced a heal."""
        if not self.probe_every:
            return False
        self._updates_since_probe += 1
        if self._updates_since_probe < self.probe_every:
            return False
        self._updates_since_probe = 0
        try:
            self.check_invariants()
        except InvariantViolationError as exc:
            self.invariant_failures += 1
            self._heal(exc)
            return True
        return False

    def _heal(self, cause: BaseException) -> None:
        """Rebuild the index from the surviving window contents, keeping
        the window's tick."""
        if self.max_heals is not None and self.heals >= self.max_heals:
            raise UnrecoverableMonitorError(
                f"heal budget exhausted after {self.heals} heals"
            ) from cause
        survivors = len(self._monitor.window)
        try:
            healed = persist.restore(persist.snapshot(self._monitor))
        except Exception as heal_exc:
            raise UnrecoverableMonitorError(
                f"could not rebuild monitor from {survivors} "
                f"surviving objects: {heal_exc}"
            ) from cause
        healed.stats = self._monitor.stats
        self._monitor = healed
        self.heals += 1
        self._updates_since_probe = 0
