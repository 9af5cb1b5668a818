"""End-to-end soak harness: phased fault campaigns over the full stack.

:func:`run_soak` composes every production layer this library ships —

    NonReplayableSource → FaultInjectingSource → ClockSkewSource
        → IngestGuard (+ ReorderBuffer, DeadLetterQueue)
        → BackpressureQueue
        → StreamEngine → WriteAheadLog
                       → AdaptiveMonitor (deadline ladder)
                       → CheckpointManager

— and drives it through a :class:`~repro.soak.scenario.Scenario`'s
phases: clean traffic, dirty data, late/skew bursts, overload spikes,
mid-run compute-tier crashes and WAL damage.  The source is
a :class:`~repro.soak.injectors.NonReplayableSource` and every admitted
batch is journalled to a write-ahead log, so the one crash-recovery
path is checkpoint + WAL tail: an arrival, once consumed, is never
read again.  An :class:`~repro.soak.invariants.InvariantMonitor`
closes the loop every tick: global conservation across all layers,
dead-letter completeness, watermark monotonicity, epsilon-guarantee
spot checks against an exact companion, and exact re-convergence
after every recovery.

Everything is deterministic for a fixed seed: arrivals, fault rolls,
skew schedules, crash points, *and the ladder trajectory* — the
deadline controller is fed a modeled latency (``unit_ms × batch ×
rung_discount``) instead of wall-clock, so two runs of the same
scenario produce byte-identical reports.  A scenario with
``unit_ms=None`` trades that for a wall-clock ladder against a budget
calibrated on the host, and gates the campaign's p95 update latency.
The ``maxrs-stream soak`` CLI and the CI soak-smoke job are thin
wrappers over this function.
"""

from __future__ import annotations

import errno
import itertools
import tempfile
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Tuple

from repro.core.objects import SpatialObject
from repro.datasets import make_stream
from repro.durability.recovery import reconcile, scan_wal
from repro.durability.wal import WriteAheadLog
from repro.engine.engine import StreamEngine
from repro.engine.stats import TimingStats
from repro.errors import InvalidParameterError, ReproError, SnapshotError
from repro.overload.backpressure import BackpressureQueue
from repro.overload.controller import AdaptiveMonitor
from repro.resilience.chaos import FaultInjectingSource
from repro.resilience.checkpoint import CheckpointManager
from repro.resilience.guard import ErrorPolicy, IngestGuard
from repro.soak.injectors import (
    ClockSkewSource,
    NonReplayableSource,
    corrupt_checkpoint,
    corrupt_wal,
)
from repro.soak.invariants import InvariantMonitor
from repro.soak.load import LoadGenerator
from repro.soak.scenario import Phase, Scenario, get_scenario
from repro.window import CountWindow

__all__ = ["SoakReport", "run_soak"]

_MONITOR = "ladder"
_MAX_FAILURE_LINES = 20
# budget calibration (``unit_ms=None``): discarded warm-up ticks, then
# timed ones; the floor keeps a very fast host from handing the ladder a
# budget below timer noise
_CALIBRATION_WARMUP = 2
_CALIBRATION_TICKS = 100
_MIN_BUDGET_MS = 0.05


@dataclass
class SoakReport:
    """Everything one soak campaign observed, plus its verdict.

    The CLI renders :meth:`rows` as a ``(quantity, value)`` table,
    writes :meth:`to_dict` as JSON, and gates its exit code on
    :attr:`ok`, printing :meth:`failures` first.

    Free of object ids and, for modeled-latency scenarios, of
    wall-clock quantities: two runs of the same scenario and seed must
    serialise identically (``to_dict() == to_dict()``), which is itself
    asserted in tests.  Only a calibrated scenario (``unit_ms=None``)
    reports a measured budget and p95.
    """

    scenario: str
    seed: int
    verify_checksum: bool
    ticks: int
    batches: int
    # ingest accounting
    offered: int
    admitted: int
    quarantined: int
    skipped: int
    late_dropped: int
    late_reordered: int
    reorder_pending: int
    dead_letters: int
    # queue accounting
    processed: int
    shed: int
    refused_offers: int
    spilled: int
    queue_pending: int
    holdover: int
    # injected faults
    drops: int
    duplicates: int
    corrupt_payloads: int
    delayed: int
    skewed: int
    # crash / recovery
    crashes: int
    recoveries: int
    cold_starts: int
    replayed_batches: int
    checkpoints_written: int
    checkpoint_fallbacks: int
    checksum_failures: int
    # ladder trajectory (accumulated across incarnations)
    ladder_transitions: int
    final_mode: str
    rebuilds: int
    # invariant coverage
    ledger_checks: int
    watermark_checks: int
    guarantee_checks: int
    convergence_checks: int
    # durability: the WAL every campaign journals to
    wal_appends: int
    wal_fsyncs: int
    wal_truncated_tails: int
    wal_skipped_records: int
    wal_segments_compacted: int
    wal_spill_restored: int
    enospc_injected: int
    enospc_recovered: int
    recovery_source_reads: int
    # latency budget; p95 is measured only when the budget is calibrated
    budget_ms: float
    calibrated: bool
    p95_update_ms: float | None = None
    transition_reasons: Dict[str, int] = field(default_factory=dict)
    violations: List[Dict[str, object]] = field(default_factory=list)
    phases: List[Dict[str, object]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True iff no cross-layer invariant was breached."""
        return not self.violations

    def failures(self) -> list[str]:
        lines = [
            f"{v['kind']} in phase {v['phase']!r}: {v['detail']}"
            for v in self.violations[:_MAX_FAILURE_LINES]
        ]
        hidden = len(self.violations) - _MAX_FAILURE_LINES
        if hidden > 0:
            lines.append(f"... and {hidden} more violations")
        return lines

    def _pairs(self) -> List[Tuple[str, object]]:
        return [
            ("scenario", self.scenario),
            ("seed", self.seed),
            ("checksum verified", self.verify_checksum),
            ("arrival ticks", self.ticks),
            ("applied batches", self.batches),
            ("records offered", self.offered),
            ("records admitted", self.admitted),
            ("records quarantined", self.quarantined),
            ("records skipped", self.skipped),
            ("late dropped", self.late_dropped),
            ("late reordered", self.late_reordered),
            ("reorder pending", self.reorder_pending),
            ("dead letters", self.dead_letters),
            ("objects processed", self.processed),
            ("objects shed", self.shed),
            ("refused offers", self.refused_offers),
            ("objects spilled", self.spilled),
            ("queue pending", self.queue_pending),
            ("holdover", self.holdover),
            ("injected drops", self.drops),
            ("injected duplicates", self.duplicates),
            ("injected corrupt", self.corrupt_payloads),
            ("injected delays", self.delayed),
            ("injected skews", self.skewed),
            ("crashes", self.crashes),
            ("recoveries", self.recoveries),
            ("cold starts", self.cold_starts),
            ("replayed batches", self.replayed_batches),
            ("checkpoints written", self.checkpoints_written),
            ("checkpoint fallbacks", self.checkpoint_fallbacks),
            ("checksum failures", self.checksum_failures),
            ("ladder transitions", self.ladder_transitions),
            ("final mode", self.final_mode),
            ("index rebuilds", self.rebuilds),
            ("ledger checks", self.ledger_checks),
            ("watermark checks", self.watermark_checks),
            ("guarantee checks", self.guarantee_checks),
            ("convergence checks", self.convergence_checks),
            ("wal appends", self.wal_appends),
            ("wal fsyncs", self.wal_fsyncs),
            ("wal truncated tails", self.wal_truncated_tails),
            ("wal skipped records", self.wal_skipped_records),
            ("wal segments compacted", self.wal_segments_compacted),
            ("wal spill restored", self.wal_spill_restored),
            ("enospc injected", self.enospc_injected),
            ("enospc recovered", self.enospc_recovered),
            ("recovery source reads", self.recovery_source_reads),
            ("latency budget ms", f"{self.budget_ms:.3f}"),
            ("budget calibrated", self.calibrated),
            (
                "p95 update ms",
                "modeled"
                if self.p95_update_ms is None
                else f"{self.p95_update_ms:.3f}",
            ),
            ("violations", len(self.violations)),
            ("soak passed", self.ok),
        ]

    def rows(self) -> list[dict[str, object]]:
        """(quantity, value) rows for the CLI table."""
        return [{"quantity": k, "value": v} for k, v in self._pairs()]

    def to_dict(self) -> dict[str, Any]:
        """The JSON document: snake_cased row keys plus the structured
        fields that have no tabular shape."""
        doc: dict[str, Any] = {
            k.replace(" ", "_"): v for k, v in self._pairs()
        }
        doc["transition_reasons"] = dict(self.transition_reasons)
        doc["violation_details"] = [dict(v) for v in self.violations]
        doc["phase_breakdown"] = [dict(p) for p in self.phases]
        return doc


def _calibrate_budget_ms(scn: Scenario, seed: int) -> float:
    """Latency budget from this host's measured exact update cost.

    The cost that matters is the one the p95 gate times: the ladder's
    exact update *inside* the campaign, interleaved with the rest of
    the stack's per-tick work (guard, queue, WAL append and fsync,
    checkpoints, exact-companion sweeps).  So the campaign's own stack
    runs a calm prefix of the campaign — same stream, seed, window and
    rate, in a throwaway directory — with the ladder held on its exact
    rung by an unreachable budget.  Warm-up ticks are discarded and the
    p75 of the timed updates anchors the budget.

    Both the conditions and the length matter.  Back-to-back updates
    on a bare monitor read about a quarter cheaper than the same
    updates inside the campaign, and a shared host's speed drifts by up
    to 2x over hundreds of milliseconds: eight back-to-back updates
    (a few ms) sample one such phase, a hundred campaign ticks span
    several.
    """
    calm = replace(
        scn,
        phases=(
            Phase(
                name="calibration",
                ticks=_CALIBRATION_WARMUP + _CALIBRATION_TICKS,
            ),
        ),
    )
    with tempfile.TemporaryDirectory(prefix="maxrs-calibration-") as tmp:
        run = _SoakRun(calm, seed, True, Path(tmp), budget_ms=float("inf"))
        run.execute()
    timings = TimingStats(run.update_times.samples[_CALIBRATION_WARMUP:])
    p75_ms = timings.percentile(75.0) * 1000.0
    return max(scn.budget_factor * p75_ms, _MIN_BUDGET_MS)


class _SoakRun:
    """One scenario execution: the composed stack plus its bookkeeping.

    ``budget_ms`` overrides the scenario's own latency budget (modeled
    or calibrated); budget calibration passes an unreachable one.
    """

    def __init__(
        self,
        scenario: Scenario,
        seed: int,
        verify_checksum: bool,
        checkpoint_dir: Path,
        wal_dir: Path | None = None,
        budget_ms: float | None = None,
    ) -> None:
        scn = self.scenario = scenario
        self.seed = seed
        self.verify_checksum = verify_checksum
        self.ckpt_path = checkpoint_dir / f"{scn.name}.ckpt.json"

        self.calibrated = scn.unit_ms is None
        self._latency_model = None
        if budget_ms is not None:
            self.budget_ms = budget_ms
        elif scn.unit_ms is None:
            self.budget_ms = _calibrate_budget_ms(scn, seed)
        else:
            self.budget_ms = scn.unit_ms * scn.rate * scn.budget_factor
            # rung cost factors for the modeled latency: exact work is
            # the unit, each approximation rung is proportionally
            # cheaper, and sampling is an order of magnitude cheaper —
            # the shape (not the absolute numbers) is what the
            # controller steers on
            discounts = [1.0] + [
                1.0 / (i + 2) for i in range(len(scn.epsilons))
            ] + [0.1]
            unit = scn.unit_ms

            def latency_model(rung: int, batch: int) -> float:
                return unit * batch * discounts[min(rung, len(discounts) - 1)]

            self._latency_model = latency_model
        # any source touch during recovery is counted and a
        # re-iteration refused — zero-source-read recovery is asserted,
        # not assumed
        self.source = NonReplayableSource(
            make_stream(scn.dataset, domain=scn.domain, seed=seed)
        )
        self.base = iter(self.source)
        self.wal_dir = (
            wal_dir if wal_dir is not None else checkpoint_dir / f"{scn.name}.wal"
        )
        self.wal = self._open_wal()
        self.guard = IngestGuard(
            policy=ErrorPolicy.QUARANTINE,
            max_lateness=scn.max_lateness,
            dlq_capacity=4096,
        )
        self.queue = BackpressureQueue(
            scn.capacity, policy=scn.shed_policy, max_batch=scn.max_batch
        )
        self.update_times = TimingStats()
        self.adaptive = self._make_adaptive()
        self.manager = CheckpointManager(
            self.adaptive,
            self.ckpt_path,
            every=scn.checkpoint_every,
            keep=scn.checkpoint_keep,
        )
        self.engine = StreamEngine(
            {_MONITOR: self.adaptive},
            iter(()),  # externally driven: the engine never pulls
            batch_size=scn.rate,
            checkpoint=self.manager,
            wal=self.wal,
        )
        self.invariants = InvariantMonitor(
            guard=self.guard,
            queue=self.queue,
            side=scn.side,
            stride=scn.stride,
        )
        self.reference = CountWindow(scn.window)
        self.applied = 0
        self.holdover: List[SpatialObject] = []
        self._shed_seen = 0
        # accumulated across monitor incarnations (crash replaces the
        # AdaptiveMonitor, which would otherwise reset its counters)
        self.transition_reasons: Counter[str] = Counter()
        self.rebuilds = 0
        self.ticks = 0
        self.crashes = 0
        self.cold_starts = 0
        self.replayed = 0
        # WAL counters banked across log incarnations (each crash
        # closes the log; the reopened instance restarts its counters)
        self.wal_appends = 0
        self.wal_fsyncs = 0
        self.wal_truncated = 0
        self.wal_skipped = 0
        self.wal_compacted = 0
        self.spill_restored = 0
        self.enospc_injected = 0
        self.recovery_source_reads = 0
        self.tallies = {
            "drops": 0,
            "duplicates": 0,
            "corrupted": 0,
            "delayed": 0,
            "skewed": 0,
        }
        self.phase_stats: List[Dict[str, object]] = []

    # -- stack assembly ------------------------------------------------------

    def _open_wal(self) -> WriteAheadLog:
        scn = self.scenario
        return WriteAheadLog(
            self.wal_dir,
            fsync=scn.wal_fsync,
            segment_records=scn.wal_segment_records,
        )

    def _make_adaptive(self) -> AdaptiveMonitor:
        scn = self.scenario
        return AdaptiveMonitor(
            scn.side,
            scn.side,
            lambda: CountWindow(scn.window),
            budget_ms=self.budget_ms,
            epsilon_schedule=scn.epsilons,
            seed=self.seed,
            probe_every=scn.probe_every,
            latency_model=self._latency_model,
        )

    def _prime(self) -> None:
        scn = self.scenario
        prime = self.prime = list(itertools.islice(self.base, scn.window))
        self.adaptive.ingest(prime)
        self.reference.push(prime)
        # a prime checkpoint at position 0 makes even the worst recovery
        # (every later checkpoint unreadable) source-free: the fallback
        # ladder bottoms out here, never at the stream
        self.manager.checkpoint()

    def _phase_source(self, phase: Phase, index: int):
        """The (possibly fault-wrapped) record iterator for one phase.

        Wrappers abandoned at phase end may hold delayed records; those
        never reach the ingest guard, so the conservation ledger —
        which starts at the guard — is unaffected, and the loss is
        deterministic per seed.
        """
        feed: object = self.base
        chaos: FaultInjectingSource | None = None
        skew: ClockSkewSource | None = None
        if phase.has_faults:
            chaos = FaultInjectingSource(
                feed,
                seed=self.seed + 101 * (index + 1),
                p_drop=phase.p_drop,
                p_duplicate=phase.p_duplicate,
                p_corrupt=phase.p_corrupt,
                p_delay=phase.p_delay,
                max_delay=phase.max_delay,
            )
            feed = chaos
        if phase.skew_every:
            skew = ClockSkewSource(
                feed,
                skew=phase.skew_amount,
                period=phase.skew_every,
                burst=phase.skew_burst,
            )
            feed = skew
        return iter(feed) if feed is not self.base else self.base, chaos, skew

    # -- the drive loop ------------------------------------------------------

    def _apply_batch(self, phase_name: str, batch: List[SpatialObject]) -> int:
        # the ladder's backlog: what the queue could not serve at once,
        # including what it shed since the last batch (a queue that
        # sheds down to one full drain has no pending objects to show)
        shed = self.queue.shed - self._shed_seen
        self._shed_seen = self.queue.shed
        self.adaptive.note_pressure(
            self.queue.pending + len(self.holdover) + shed
        )
        self.engine.process(batch)
        self.applied += 1
        self.reference.push(batch)
        self.invariants.note_batch(phase_name, self.adaptive)
        return 1

    def _run_phase(self, phase: Phase, index: int) -> None:
        scn = self.scenario
        pull, chaos, skew = self._phase_source(phase, index)
        period = phase.period or phase.ticks
        generator = LoadGenerator(
            max(1, round(scn.rate * phase.rate_factor)),
            pattern=phase.pattern,
            burst_factor=phase.burst_factor,
            period=period,
            burst_ticks=phase.burst_ticks or period,
            jitter=phase.jitter,
            seed=self.seed + 7 * index + 3,
        )
        arrivals = generator.arrivals(phase.ticks)
        offered_before = self.guard.offered
        batches = 0
        for tick, count in enumerate(arrivals):
            if phase.crash_at == tick:
                self._crash_and_restore(phase)
            if phase.enospc_at == tick:
                self._arm_enospc()
            raw = list(itertools.islice(pull, count))
            released = self.guard.filter(raw)
            self.holdover = self.queue.offer_all(self.holdover + released)
            batch = self.queue.take_batch()
            if batch:
                batches += self._apply_batch(phase.name, batch)
            self.invariants.check_tick(phase.name, len(self.holdover))
            self.ticks += 1
        if chaos is not None:
            self.tallies["drops"] += chaos.drops
            self.tallies["duplicates"] += chaos.duplicates
            self.tallies["corrupted"] += chaos.corrupted
            self.tallies["delayed"] += chaos.delayed
        if skew is not None:
            self.tallies["skewed"] += skew.skewed
        if phase.verify_convergence:
            self.invariants.check_convergence(
                phase.name,
                self.adaptive,
                self.reference,
                where="phase end",
            )
        self.phase_stats.append(
            {
                "name": phase.name,
                "kind": phase.kind,
                "ticks": phase.ticks,
                "batches": batches,
                "offered": self.guard.offered - offered_before,
            }
        )

    def _arm_enospc(self) -> None:
        """One-shot ENOSPC on the next WAL append.

        The engine's journal path must absorb it inline: checkpoint,
        compact to the new retention floor, retry the append — counted
        in the engine's ``enospc_recoveries``, which the report exposes.
        """
        wal = self.wal

        def hook(op: str) -> None:
            if op == "append":
                wal.fault_hook = None
                self.enospc_injected += 1
                raise OSError(errno.ENOSPC, "No space left on device")

        wal.fault_hook = hook

    def _crash_and_restore(self, phase: Phase) -> None:
        """Tear the compute tier down mid-run, then recover it from the
        newest readable checkpoint plus the WAL tail — never a source
        read.

        The in-flight buffer is journalled before it dies, the
        checkpoint and log are damaged as the phase dictates (between
        incarnations, as real corruption lands), and the rebuilt
        monitor is fed only from disk: checkpointed window contents,
        then the reconciled batch tail, then the spill back into the
        queue.  The non-replayable source makes any deviation from that
        contract a violation.
        """
        self.crashes += 1
        self._bank_ladder(self.adaptive)
        self._bank_update_times()
        self.engine.teardown()
        self.queue.spill(wal=self.wal)  # journalled, then dies with the tier
        self._bank_wal(self.wal)
        self.wal.close()
        if phase.corrupt is not None and self.ckpt_path.exists():
            corrupt_checkpoint(self.ckpt_path, phase.corrupt)
        for mode in phase.wal_corrupt:
            corrupt_wal(self.wal_dir, mode)
        reads_before = self.source.reads
        try:
            snapshot, position = self.manager.recover(
                verify_checksum=self.verify_checksum
            )
            contents = list(snapshot.window.contents)
        except (SnapshotError, InvalidParameterError):
            # every checkpoint unreadable: the primed window was
            # retained in memory, so position 0 is reachable without a
            # source read
            contents, position = self.prime, 0
            self.cold_starts += 1
        # reopen first (truncating any torn tail on disk), then scan the
        # now-consistent log and reconcile it against the checkpoint
        self.wal = self._open_wal()
        scan = scan_wal(self.wal_dir)
        tail = reconcile(scan, position)
        self.wal_skipped += len(scan.skipped)
        self.adaptive = self._make_adaptive()
        if contents:
            self.adaptive.ingest(contents)
        for _index, objects in tail.batches:
            self.adaptive.update(objects)
        self.replayed += len(tail.batches)
        self.wal.note_recovered(scan.last_index)
        self.engine.wal = self.wal
        self.spill_restored += self.queue.restore_spilled(tail.spill)
        if scan.last_index != self.applied:
            self.invariants._violate(
                phase.name,
                "wal_replay_divergence",
                f"WAL last index {scan.last_index} disagrees with the "
                f"{self.applied} batches actually applied",
            )
        self.manager.resume(self.adaptive, self.applied)
        self.engine.restore({_MONITOR: self.adaptive})
        delta = self.source.reads - reads_before
        if delta:
            self.recovery_source_reads += delta
            self.invariants._violate(
                phase.name,
                "source_read_during_recovery",
                f"recovery consumed {delta} records from a "
                f"non-replayable source",
            )
        self.invariants.check_convergence(
            phase.name,
            self.adaptive,
            self.reference,
            where="post-recovery WAL replay",
            require_exact_mode=False,
        )

    def _bank_wal(self, wal: WriteAheadLog) -> None:
        self.wal_appends += wal.appends
        self.wal_fsyncs += wal.fsyncs
        self.wal_truncated += wal.torn_tails_truncated
        self.wal_compacted += wal.segments_compacted

    def _bank_ladder(self, monitor: AdaptiveMonitor) -> None:
        self.transition_reasons.update(
            str(t["reason"]) for t in monitor.transitions
        )
        self.rebuilds += monitor.rebuilds

    def _bank_update_times(self) -> None:
        """Keep the ladder's per-update wall times across incarnations:
        a teardown drops the engine session that records them."""
        try:
            report = self.engine.collect_report()
        except ReproError:  # nothing applied since the last restore
            return
        self.update_times.samples.extend(report.timings[_MONITOR].samples)

    def _check_latency_budget(self) -> float | None:
        """Wall-clock p95 against a calibrated budget; modeled-latency
        campaigns report no p95 and gate none."""
        if not self.calibrated or not self.update_times.samples:
            return None
        p95_ms = self.update_times.percentile(95.0) * 1000.0
        if p95_ms > self.budget_ms:
            self.invariants._violate(
                "final",
                "latency_budget",
                f"p95 update latency {p95_ms:.3f} ms exceeded the "
                f"{self.budget_ms:.3f} ms budget",
            )
        return p95_ms

    def _drain_tail(self) -> None:
        """Flush the reorder buffer and drain the queue to empty, so the
        final accounting has nothing in flight."""
        self.holdover = self.holdover + self.guard.flush()
        while True:
            self.holdover = self.queue.offer_all(self.holdover)
            batch = self.queue.take_batch()
            if not batch:
                break
            self._apply_batch("drain", batch)
            self.invariants.check_tick("drain", len(self.holdover))

    # -- entry ---------------------------------------------------------------

    def execute(self) -> SoakReport:
        try:
            self._prime()
            for index, phase in enumerate(self.scenario.phases):
                self._run_phase(phase, index)
            self._drain_tail()
            self.invariants.check_tick("final", len(self.holdover))
            self.invariants.check_convergence(
                "final",
                self.adaptive,
                self.reference,
                where="end of campaign",
                require_exact_mode=False,
            )
            self._bank_ladder(self.adaptive)
            self._bank_update_times()
            p95_ms = self._check_latency_budget()
            self._bank_wal(self.wal)
            return self._report(p95_ms)
        finally:
            self.wal.close()

    def _report(self, p95_ms: float | None) -> SoakReport:
        guard, queue, inv = self.guard, self.queue, self.invariants
        manager = self.manager
        return SoakReport(
            scenario=self.scenario.name,
            seed=self.seed,
            verify_checksum=self.verify_checksum,
            ticks=self.ticks,
            batches=self.applied,
            offered=guard.offered,
            admitted=guard.admitted,
            quarantined=guard.quarantined,
            skipped=guard.skipped,
            late_dropped=guard.late_dropped,
            late_reordered=guard.reorder.reordered,
            reorder_pending=guard.reorder.pending,
            dead_letters=guard.dead_letters.total_enqueued,
            processed=queue.processed,
            shed=queue.shed,
            refused_offers=queue.refused,
            spilled=queue.spilled,
            queue_pending=queue.pending,
            holdover=len(self.holdover),
            drops=self.tallies["drops"],
            duplicates=self.tallies["duplicates"],
            corrupt_payloads=self.tallies["corrupted"],
            delayed=self.tallies["delayed"],
            skewed=self.tallies["skewed"],
            crashes=self.crashes,
            recoveries=manager.recoveries,
            cold_starts=self.cold_starts,
            replayed_batches=self.replayed,
            checkpoints_written=manager.checkpoints_written,
            checkpoint_fallbacks=manager.fallbacks,
            checksum_failures=manager.checksum_failures,
            ladder_transitions=sum(self.transition_reasons.values()),
            final_mode=self.adaptive.mode,
            rebuilds=self.rebuilds,
            ledger_checks=inv.ledger_checks,
            watermark_checks=inv.watermark_checks,
            guarantee_checks=inv.guarantee_checks,
            convergence_checks=inv.convergence_checks,
            wal_appends=self.wal_appends,
            wal_fsyncs=self.wal_fsyncs,
            wal_truncated_tails=self.wal_truncated,
            wal_skipped_records=self.wal_skipped,
            wal_segments_compacted=self.wal_compacted,
            wal_spill_restored=self.spill_restored,
            enospc_injected=self.enospc_injected,
            enospc_recovered=self.engine.enospc_recoveries,
            recovery_source_reads=self.recovery_source_reads,
            budget_ms=self.budget_ms,
            calibrated=self.calibrated,
            p95_update_ms=p95_ms,
            transition_reasons=dict(sorted(self.transition_reasons.items())),
            violations=list(inv.violations),
            phases=self.phase_stats,
        )


def run_soak(
    scenario: Scenario | str,
    *,
    seed: int | None = None,
    verify_checksum: bool = True,
    checkpoint_dir: str | Path | None = None,
    wal_dir: str | Path | None = None,
) -> SoakReport:
    """Run one soak scenario end to end and report on it.

    Args:
        scenario: A :class:`~repro.soak.scenario.Scenario`, or the name
            of a committed one (``smoke``, ``dirty_overload``,
            ``crash_recovery``, ``wal_recovery``, ``overload_wall``).
        seed: Overrides the scenario's seed (same scenario + same seed
            ⇒ identical report).
        verify_checksum: Forwarded to checkpoint recovery.  Disabling it
            makes silent checkpoint corruption (the ``bitflip`` mode)
            restore bad state — which the re-convergence invariant then
            catches, failing the run; with it on, recovery falls back to
            the previous rotation and the run passes.
        checkpoint_dir: Where checkpoint files live; a temporary
            directory (removed afterwards) when omitted.
        wal_dir: Where WAL segments live; defaults to a
            ``<scenario>.wal`` directory beside the checkpoints.
    """
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    resolved_seed = scenario.seed if seed is None else int(seed)
    log_dir = Path(wal_dir) if wal_dir is not None else None
    if checkpoint_dir is not None:
        workdir = Path(checkpoint_dir)
        workdir.mkdir(parents=True, exist_ok=True)
        return _SoakRun(
            scenario, resolved_seed, verify_checksum, workdir, log_dir
        ).execute()
    with tempfile.TemporaryDirectory(prefix="maxrs-soak-") as tmp:
        return _SoakRun(
            scenario, resolved_seed, verify_checksum, Path(tmp), log_dir
        ).execute()
