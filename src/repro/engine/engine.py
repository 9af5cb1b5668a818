"""Continuous-query engine: drive monitors from stream sources.

:class:`StreamEngine` reproduces the paper's measurement protocol: fill
the sliding window (untimed priming), then push arrival batches of
``m`` objects and time each ``update`` call.  Several monitors can be
attached to one engine; they all observe identical batches, which is
how the experiments compare naive / G2 / aG2 and how the approximation
benchmark measures the practical error against an exact companion.

When a :class:`~repro.obs.metrics.Metrics` registry is supplied, each
monitor gets its own named scope.  Monitors count their work only in
their :class:`~repro.core.monitor.MonitorStats`; after priming and after
every update the engine adds each monitor's increase since the last
publish into its scope, one counter per field.  The engine also
observes per-update latency into an ``update_ms`` histogram, and
:class:`EngineReport` carries cumulative plus per-batch metric
snapshots alongside the timings — the substrate of the ``profile`` CLI
and the CI perf gate.  The registry holds monitor stats plus
``update_ms`` only: the layers around the monitors (guard, queue, WAL,
checkpoint manager, supervisor, ladder) count their events in plain
attributes of their own, and the engine counts the ``ENOSPC``
recoveries of its journal path in :attr:`StreamEngine.enospc_recoveries`.

:meth:`StreamEngine.run` pulls batches from the source itself.
:meth:`StreamEngine.process` is the push side: a driver that owns the
upstream (ingest guard, backpressure queue, fault injectors) hands the
engine one assembled batch at a time.  That is the only overload path:
the soak harness and the end-to-end benchmark both compose guard →
queue → ``process`` themselves, with an optional write-ahead log and
checkpoint manager attached to the engine.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterator, Sequence

from repro.core.monitor import MaxRSMonitor, MonitorStats
from repro.core.objects import SpatialObject
from repro.core.spaces import MaxRSResult
from repro.engine.stats import TimingStats
from repro.errors import (
    DiskFullError,
    InvalidParameterError,
    ReproError,
    StreamExhaustedWarning,
)
from repro.obs.metrics import Metrics, MetricsSnapshot
from repro.streams.source import StreamSource

if TYPE_CHECKING:  # resilience/durability import engine back; keep runtime lazy
    from repro.durability.wal import WriteAheadLog
    from repro.resilience.checkpoint import CheckpointManager

__all__ = ["StreamEngine", "EngineReport"]


@dataclass
class EngineReport:
    """Outcome of one engine run, per attached monitor."""

    batches: int
    batch_size: int
    timings: Dict[str, TimingStats]
    final_results: Dict[str, MaxRSResult]
    # per-batch best weights, recorded when track_weights=True
    weight_history: Dict[str, list[float]] = field(default_factory=dict)
    # batches asked for; batches < requested_batches ⇒ source ran dry
    requested_batches: int = 0
    source_exhausted: bool = False
    # cumulative per-monitor snapshot at end of run (metrics runs only)
    metrics: Dict[str, MetricsSnapshot] = field(default_factory=dict)
    # per-batch snapshot deltas, aligned with the timed batches
    batch_metrics: Dict[str, list[MetricsSnapshot]] = field(
        default_factory=dict
    )

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

    def counter_names(self) -> list[str]:
        """Union of counter names across monitors, sorted."""
        names: set[str] = set()
        for snap in self.metrics.values():
            names.update(snap.counters)
        return sorted(names)

    def metrics_table(self, counters: Sequence[str] | None = None) -> str:
        """Per-monitor counter table (columns = counter names)."""
        if not self.metrics:
            return "(no metrics recorded — run with a Metrics registry)"
        names = list(counters) if counters else self.counter_names()
        widths = [max(len(n), 12) for n in names]
        header = f"{'monitor':<16}" + "".join(
            n.rjust(w + 2) for n, w in zip(names, widths)
        )
        lines = [header]
        for monitor, snap in self.metrics.items():
            cells = "".join(
                f"{snap.counters.get(n, 0.0):>{w + 2}.0f}"
                for n, w in zip(names, widths)
            )
            lines.append(f"{monitor:<16}{cells}")
        return "\n".join(lines)

    def to_dict(self) -> dict[str, object]:
        """JSON-able document: timings summaries + metric snapshots."""
        doc: dict[str, object] = {
            "batches": self.batches,
            "requested_batches": self.requested_batches,
            "batch_size": self.batch_size,
            "source_exhausted": self.source_exhausted,
            "timings": {
                name: stats.summary() for name, stats in self.timings.items()
            },
            "metrics": {
                name: snap.to_dict() for name, snap in self.metrics.items()
            },
            "batch_metrics": {
                name: [snap.to_dict() for snap in snaps]
                for name, snaps in self.batch_metrics.items()
            },
        }
        return doc


class StreamEngine:
    """Drives one or more monitors from a single stream source.

    Args:
        monitors: Mapping name → monitor.  All monitors receive every
            batch, in mapping order.
        source: The object stream (consumed once per engine).
        batch_size: Arrival batch size ``m``.
        metrics: Optional metrics registry.  When given, each monitor's
            ``stats`` are published into ``metrics.scope(name)`` after
            priming and after every update, with its ``update_ms``
            histogram beside them, and reports carry metric snapshots;
            when omitted, the engine adds zero observability overhead.
        checkpoint: Optional
            :class:`~repro.resilience.checkpoint.CheckpointManager`;
            notified after every successfully applied timed batch, so
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
        source: StreamSource | Iterator[SpatialObject],
        batch_size: int,
        metrics: Metrics | None = None,
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
        self._iterator = iter(source)
        self.metrics = metrics
        self.checkpoint = checkpoint
        self.wal = wal
        self.enospc_recoveries = 0  # ENOSPC appends absorbed inline
        self._scopes: Dict[str, Metrics] = {}
        # each monitor's stats as last published into its scope
        self._published: Dict[str, MonitorStats] = {}
        self._session: "_RunState | None" = None
        self._torn_down = False
        if metrics is not None:
            self._bind_scopes()

    def _bind_scopes(self) -> None:
        """Give every monitor its scope and a publish baseline: its
        current ``stats``, so only counts made from here on add on."""
        for name, monitor in self.monitors.items():
            self._scopes[name] = self.metrics.scope(name)
            self._published[name] = monitor.stats.snapshot()

    def _publish(self, name: str) -> None:
        """Add monitor ``name``'s ``stats`` increase since the last
        publish into its scope: the one path by which monitor counts
        reach the registry."""
        stats = self.monitors[name].stats
        scope = self._scopes[name]
        for field_name, amount in stats.delta(self._published[name]).items():
            scope.inc(field_name, amount)
        self._published[name] = stats.snapshot()

    def _next_batch(self, size: int) -> list[SpatialObject]:
        batch: list[SpatialObject] = []
        for obj in self._iterator:
            batch.append(obj)
            if len(batch) >= size:
                break
        return batch

    def prime(self, count: int) -> int:
        """Push ``count`` objects untimed — fills the window so the
        timed phase measures steady-state update cost, as in §7.

        Returns the number of objects actually primed; when the source
        runs dry early a :class:`StreamExhaustedWarning` is emitted so
        the short fill cannot pass silently.
        """
        if count < 0:
            raise InvalidParameterError(f"prime count must be >= 0, got {count}")
        # larger chunks keep bulk-loading cheap; window state after
        # priming is identical for any chunking of a count window
        chunk = max(self.batch_size, 1000)
        remaining = count
        while remaining > 0:
            batch = self._next_batch(min(chunk, remaining))
            if not batch:
                warnings.warn(
                    "stream exhausted while priming: got "
                    f"{count - remaining} of {count} objects",
                    StreamExhaustedWarning,
                    stacklevel=2,
                )
                break
            for monitor in self.monitors.values():
                monitor.ingest(batch)
            remaining -= len(batch)
        if self.metrics is not None:
            for name in self.monitors:
                self._publish(name)
        return count - remaining

    def run(
        self, batches: int, track_weights: bool = False
    ) -> EngineReport:
        """Push ``batches`` timed arrival batches through every monitor.

        A source that runs dry mid-run stops the loop early; the report
        flags it via ``source_exhausted`` (and a
        :class:`StreamExhaustedWarning`) rather than silently returning
        statistics over fewer batches than requested.
        """
        if batches <= 0:
            raise InvalidParameterError(
                f"batch count must be positive, got {batches}"
            )
        state = _RunState(self, track_weights)
        executed = 0
        exhausted = False
        for _ in range(batches):
            batch = self._next_batch(self.batch_size)
            if not batch:
                exhausted = True
                break
            executed += 1
            state.apply(batch)
        if exhausted:
            warnings.warn(
                f"stream exhausted after {executed} of {batches} batches",
                StreamExhaustedWarning,
                stacklevel=2,
            )
        return state.report(
            batches=executed,
            requested_batches=batches,
            source_exhausted=exhausted,
        )

    # -- externally driven sessions (soak harness) ---------------------------

    def process(
        self, batch: Sequence[SpatialObject]
    ) -> Dict[str, MaxRSResult]:
        """Apply one externally assembled batch to every monitor.

        Unlike :meth:`run`, the caller owns the upstream (guard,
        backpressure queue, fault injectors) and hands the engine fully
        formed batches one at a time — the one overload path, which the
        soak harness and the end-to-end benchmark both drive.  Batches
        accumulate into a persistent session — timings, metric deltas
        and checkpoint positions line up exactly as in a pull-mode
        run — which :meth:`collect_report` closes out.
        """
        if self._torn_down:
            raise ReproError(
                "engine has been torn down; restore() monitors before "
                "processing further batches"
            )
        if not batch:
            raise InvalidParameterError("process() needs a non-empty batch")
        if self._session is None:
            self._session = _RunState(self, track_weights=False)
        self._session.apply(list(batch))
        return dict(self._session.final)

    def collect_report(self) -> EngineReport:
        """Close the current :meth:`process` session and report on it."""
        session = self._session
        if session is None:
            raise ReproError("no process() session to report on")
        self._session = None
        return session.report(
            batches=len(session.batch_sizes),
            requested_batches=len(session.batch_sizes),
            source_exhausted=False,
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
        """Rebind recovered monitors after :meth:`teardown`.

        Each monitor publishes into the scope of the same name, with
        its baseline re-based on its current ``stats``, so the new
        incarnation's counts add on to the old one's — the observable
        record of the run includes both incarnations.
        """
        if not monitors:
            raise InvalidParameterError("at least one monitor is required")
        self.monitors = dict(monitors)
        if self.metrics is not None:
            self._bind_scopes()
        self._torn_down = False


class _RunState:
    """Shared per-batch bookkeeping of :meth:`StreamEngine.run` and
    :meth:`StreamEngine.process` sessions: timings, weight history,
    metric snapshot deltas, checkpoints."""

    def __init__(self, engine: StreamEngine, track_weights: bool) -> None:
        self.engine = engine
        self.track_weights = track_weights
        self.timings = {name: TimingStats() for name in engine.monitors}
        self.history: Dict[str, list[float]] = (
            {name: [] for name in engine.monitors} if track_weights else {}
        )
        self.final: Dict[str, MaxRSResult] = {}
        self.observed = engine.metrics is not None
        self.previous: Dict[str, MetricsSnapshot] = {}
        self.batch_metrics: Dict[str, list[MetricsSnapshot]] = {}
        self.batch_sizes: list[int] = []
        if self.observed:
            # counts made outside the engine since the last publish (a
            # caller priming through ingest) belong before the session
            for name in engine.monitors:
                engine._publish(name)
            self.previous = {
                name: scope.snapshot()
                for name, scope in engine._scopes.items()
            }
            self.batch_metrics = {name: [] for name in engine.monitors}

    def apply(self, batch: list[SpatialObject]) -> None:
        engine = self.engine
        if engine.wal is not None:
            self._journal(batch)
        self.batch_sizes.append(len(batch))
        for name, monitor in engine.monitors.items():
            start = time.perf_counter()
            result = monitor.update(batch)
            elapsed = time.perf_counter() - start
            self.timings[name].record(elapsed)
            self.final[name] = result
            if self.track_weights:
                self.history[name].append(result.best_weight)
            if self.observed:
                engine._publish(name)
                scope = engine._scopes[name]
                scope.observe("update_ms", elapsed * 1000.0)
                snap = scope.snapshot()
                self.batch_metrics[name].append(snap.delta(self.previous[name]))
                self.previous[name] = snap
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

    def report(
        self,
        batches: int,
        requested_batches: int,
        source_exhausted: bool,
    ) -> EngineReport:
        engine = self.engine
        return EngineReport(
            batches=batches,
            batch_size=engine.batch_size,
            timings=self.timings,
            final_results=self.final,
            weight_history=self.history,
            requested_batches=requested_batches,
            source_exhausted=source_exhausted,
            metrics=(
                {
                    name: scope.snapshot()
                    for name, scope in engine._scopes.items()
                }
                if self.observed
                else {}
            ),
            batch_metrics=self.batch_metrics,
        )
