"""Continuous-query engine: push assembled batches through monitors.

:class:`StreamEngine` applies each batch a driver hands it to every
attached monitor and times each ``update`` call.  The driver owns the
upstream (ingest guard, backpressure queue, fault injectors) and calls
:meth:`StreamEngine.process` once per assembled batch: the soak harness
and the end-to-end benchmark both compose guard → queue → ``process``
themselves, with an optional write-ahead log and checkpoint manager
attached to the engine.  Several monitors can be attached to one
engine; they all observe identical batches.

The engine keeps no counters of the monitors' work: each monitor counts
in its :class:`~repro.core.monitor.MonitorStats` (``monitor.stats``),
and the layers around the monitors count in plain attributes of their
own.  The engine counts the ``ENOSPC`` recoveries of its journal path
in :attr:`StreamEngine.enospc_recoveries`.  Timed measurement runs
(the bench, the paper experiments, ``profile``) go through
:func:`repro.bench.measure`, not through the engine.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Sequence

from repro.core.monitor import MaxRSMonitor
from repro.core.objects import SpatialObject
from repro.core.spaces import MaxRSResult
from repro.engine.stats import TimingStats
from repro.errors import DiskFullError, InvalidParameterError, ReproError

if TYPE_CHECKING:  # resilience/durability import engine back; keep runtime lazy
    from repro.durability.wal import WriteAheadLog
    from repro.resilience.checkpoint import CheckpointManager

__all__ = ["StreamEngine", "EngineReport"]


@dataclass
class EngineReport:
    """Outcome of one :meth:`StreamEngine.process` session, per monitor."""

    batches: int
    timings: Dict[str, TimingStats]
    final_results: Dict[str, MaxRSResult]

    def _stats(self, name: str) -> TimingStats:
        stats = self.timings.get(name)
        if stats is None:
            attached = ", ".join(sorted(self.timings)) or "<none>"
            raise InvalidParameterError(
                f"unknown monitor {name!r}; report covers: {attached}"
            )
        return stats

    def mean_ms(self, name: str) -> float:
        return self._stats(name).mean_ms

    def p95_ms(self, name: str) -> float:
        return self._stats(name).percentile(95.0) * 1000.0

    def table(self) -> str:
        """A small human-readable summary table."""
        lines = [f"{'monitor':<16}{'mean ms':>10}{'median ms':>12}{'p95 ms':>10}"]
        for name, stats in self.timings.items():
            s = stats.summary()
            lines.append(
                f"{name:<16}{s['mean_ms']:>10.3f}"
                f"{s['median_ms']:>12.3f}{s['p95_ms']:>10.3f}"
            )
        return "\n".join(lines)


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
        self.enospc_recoveries = 0  # ENOSPC appends absorbed inline
        self._session: "_RunState | None" = None
        self._torn_down = False

    def process(
        self, batch: Sequence[SpatialObject]
    ) -> Dict[str, MaxRSResult]:
        """Apply one externally assembled batch to every monitor.

        The caller owns the upstream (guard, backpressure queue, fault
        injectors) and hands the engine fully formed batches one at a
        time.  Batches accumulate into a persistent session — timings
        and checkpoint positions — which :meth:`collect_report` closes
        out.
        """
        if self._torn_down:
            raise ReproError(
                "engine has been torn down; restore() monitors before "
                "processing further batches"
            )
        if not batch:
            raise InvalidParameterError("process() needs a non-empty batch")
        if self._session is None:
            self._session = _RunState(self)
        self._session.apply(list(batch))
        return dict(self._session.final)

    def collect_report(self) -> EngineReport:
        """Close the current :meth:`process` session and report on it."""
        session = self._session
        if session is None:
            raise ReproError("no process() session to report on")
        self._session = None
        return EngineReport(
            batches=session.batches,
            timings=session.timings,
            final_results=session.final,
        )

    def teardown(self) -> None:
        """Simulate a compute-tier crash: drop monitors and session.

        Everything downstream of the ingest boundary dies — the
        monitors (and their in-memory indexes) are discarded and the
        open session is abandoned.  The attached checkpoint manager
        and any upstream state (guard, queue) survive, exactly as a
        separate ingest process would across a worker crash.  The
        engine refuses further :meth:`process` calls until
        :meth:`restore` rebinds monitors.
        """
        self._session = None
        self.monitors = {}
        self._torn_down = True

    def restore(self, monitors: Dict[str, MaxRSMonitor]) -> None:
        """Rebind recovered monitors after :meth:`teardown`."""
        if not monitors:
            raise InvalidParameterError("at least one monitor is required")
        self.monitors = dict(monitors)
        self._torn_down = False


class _RunState:
    """Per-batch bookkeeping of a :meth:`StreamEngine.process` session:
    the WAL → update → checkpoint sequence and the update timings."""

    def __init__(self, engine: StreamEngine) -> None:
        self.engine = engine
        self.timings = {name: TimingStats() for name in engine.monitors}
        self.final: Dict[str, MaxRSResult] = {}
        self.batches = 0

    def apply(self, batch: list[SpatialObject]) -> None:
        engine = self.engine
        if engine.wal is not None:
            self._journal(batch)
        self.batches += 1
        for name, monitor in engine.monitors.items():
            start = time.perf_counter()
            result = monitor.update(batch)
            self.timings[name].record(time.perf_counter() - start)
            self.final[name] = result
        if engine.checkpoint is not None:
            wrote = engine.checkpoint.note_batch()
            if wrote and engine.wal is not None:
                # the checkpoint is durable; seal the WAL up to here and
                # drop segments no retained checkpoint can still need
                engine.wal.sync()
                engine.wal.compact(engine.checkpoint.retention_floor)

    def _journal(self, batch: list[SpatialObject]) -> None:
        """Append-before-apply: the batch is on disk before any monitor
        mutates, so a crash anywhere in the update leaves a replayable
        record.  ``ENOSPC`` runs the documented recovery action inline:
        take a checkpoint, compact the segments it covers, retry once.
        """
        engine = self.engine
        try:
            engine.wal.append_batch(batch)
        except DiskFullError:
            if engine.checkpoint is None:
                raise
            engine.checkpoint.checkpoint()
            engine.wal.compact(engine.checkpoint.retention_floor)
            engine.enospc_recoveries += 1
            engine.wal.append_batch(batch)
