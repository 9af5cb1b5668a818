"""Continuous-query engine: push assembled batches through monitors.

:class:`StreamEngine` is the library's one fan-out over monitors: it
applies each batch a driver hands it to every attached monitor and
times each ``update`` call.  Several continuous queries over one
stream (paper §8) are several named monitors on one engine — different
rectangle sizes, windows, tolerances or k — and all of them observe
identical batches.  The driver owns the upstream (ingest guard,
backpressure queue, fault injectors) and calls
:meth:`StreamEngine.process` once per assembled batch: the soak harness
and the end-to-end benchmark both compose guard → queue → ``process``
themselves, with an optional write-ahead log and checkpoint manager
attached to the engine.

The engine keeps no counters of the monitors' work: each monitor counts
in its :class:`~repro.core.monitor.MonitorStats` (``monitor.stats``),
and the layers around the monitors count in plain attributes of their
own.  The engine's own are :attr:`StreamEngine.batches`,
:attr:`StreamEngine.timings` (one :class:`TimingStats` per monitor) and
:attr:`StreamEngine.enospc_recoveries`.  A crash drops the engine; a
driver that recovers builds a new one over the recovered monitors.
Timed measurement runs (the bench, the paper experiments, ``profile``)
go through :func:`repro.bench.measure`, not through the engine.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Dict, Sequence

from repro.core.monitor import MaxRSMonitor
from repro.core.objects import SpatialObject
from repro.core.spaces import MaxRSResult
from repro.engine.stats import TimingStats
from repro.errors import DiskFullError, InvalidParameterError

if TYPE_CHECKING:  # resilience/durability import engine back; keep runtime lazy
    from repro.durability.wal import WriteAheadLog
    from repro.resilience.checkpoint import CheckpointManager

__all__ = ["StreamEngine"]


class StreamEngine:
    """Applies externally assembled batches to one or more monitors.

    Args:
        monitors: Mapping name → monitor.  All monitors receive every
            batch, in mapping order.
        _source: Ignored.  The engine never reads a source; the slot
            stays so that callers written as ``StreamEngine(monitors,
            [], batch_size, ...)`` keep working.
        batch_size: Arrival batch size ``m``; must be positive.
        checkpoint: Optional
            :class:`~repro.resilience.checkpoint.CheckpointManager`;
            notified after every successfully applied batch, so
            periodic checkpoints align with the engine's batch count
            (the position replayed on recovery).
        wal: Optional :class:`~repro.durability.wal.WriteAheadLog`.
            Every applied batch is journalled *before* any monitor sees
            it (append-before-apply), so recovery can replay the
            post-checkpoint tail from disk without touching the
            original source.  When a checkpoint manager is also
            attached, each periodic checkpoint is followed by a WAL
            ``sync()`` and a compaction down to the manager's
            ``retention_floor``; a :class:`~repro.errors.DiskFullError`
            on the append path triggers the documented recovery action
            automatically — checkpoint, compact, retry once — and
            counted in :attr:`enospc_recoveries`.
    """

    def __init__(
        self,
        monitors: Dict[str, MaxRSMonitor],
        _source: object,
        batch_size: int,
        checkpoint: "CheckpointManager | None" = None,
        wal: "WriteAheadLog | None" = None,
    ) -> None:
        if not monitors:
            raise InvalidParameterError("at least one monitor is required")
        if batch_size <= 0:
            raise InvalidParameterError(
                f"batch size must be positive, got {batch_size}"
            )
        self.monitors = dict(monitors)
        self.batch_size = batch_size
        self.checkpoint = checkpoint
        self.wal = wal
        self.batches = 0  # batches applied
        # wall time of every monitor.update, per monitor
        self.timings = {name: TimingStats() for name in self.monitors}
        self.enospc_recoveries = 0  # ENOSPC appends absorbed inline

    def process(
        self, batch: Sequence[SpatialObject]
    ) -> Dict[str, MaxRSResult]:
        """Apply one externally assembled batch to every monitor and
        return each monitor's answer, by name.

        The order is WAL append → every ``update`` (timed) →
        checkpoint, then WAL sync and compaction when the checkpoint
        was written.
        """
        if not batch:
            raise InvalidParameterError("process() needs a non-empty batch")
        batch = list(batch)
        if self.wal is not None:
            self._journal(batch)
        self.batches += 1
        results: Dict[str, MaxRSResult] = {}
        for name, monitor in self.monitors.items():
            start = time.perf_counter()
            results[name] = monitor.update(batch)
            self.timings[name].record(time.perf_counter() - start)
        if self.checkpoint is not None:
            wrote = self.checkpoint.note_batch()
            if wrote and self.wal is not None:
                # the checkpoint is durable; seal the WAL up to here and
                # drop segments no retained checkpoint can still need
                self.wal.sync()
                self.wal.compact(self.checkpoint.retention_floor)
        return results

    def _journal(self, batch: list[SpatialObject]) -> None:
        """Append-before-apply: the batch is on disk before any monitor
        mutates, so a crash anywhere in the update leaves a replayable
        record.  ``ENOSPC`` runs the documented recovery action inline:
        take a checkpoint, compact the segments it covers, retry once.
        """
        try:
            self.wal.append_batch(batch)
        except DiskFullError:
            if self.checkpoint is None:
                raise
            self.checkpoint.checkpoint()
            self.wal.compact(self.checkpoint.retention_floor)
            self.enospc_recoveries += 1
            self.wal.append_batch(batch)
