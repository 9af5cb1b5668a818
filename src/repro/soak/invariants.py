"""Cross-layer invariant checking for soak campaigns.

:class:`InvariantMonitor` closes the loop across the whole composed
stack, every tick:

* **global conservation** — every record offered to the ingest guard is
  admitted, quarantined, skipped, late-dropped or parked in the reorder
  buffer; every admitted object is processed, shed, spilled (crash),
  pending in the queue or held upstream — nothing vanishes between
  layers;
* **dead-letter completeness** — every quarantined or late-dropped
  record is in the dead-letter queue's totals;
* **queue ledger closure** — the backpressure queue's own ledger;
* **watermark monotonicity** — the reorder watermark never regresses,
  across batches, phases, crashes and recoveries;
* **epsilon guarantees** — every ``stride``-th applied batch, a
  degraded answer with a deterministic floor is re-checked against a
  fresh exact plane sweep (the exact-companion spot check);
* **exact re-convergence** — after a recovery (and at the end of any
  ``verify_convergence`` phase) the monitor's window must equal the
  reference window object-for-object and its answer must equal the
  exact sweep.

Violations are collected (not raised): a soak keeps driving the stack
after a breach so one bug cannot mask later ones; the report's exit
code carries the verdict.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Sequence

from repro.core.objects import SpatialObject, to_weighted_rects
from repro.core.planesweep import plane_sweep_max
from repro.overload.backpressure import BackpressureQueue
from repro.resilience.guard import IngestGuard

if TYPE_CHECKING:
    from repro.core.spaces import MaxRSResult
    from repro.overload.controller import AdaptiveMonitor
    from repro.window.base import SlidingWindow

__all__ = ["InvariantMonitor", "exact_weight_over"]

_WEIGHT_TOL = 1e-6


def exact_weight_over(
    contents: Sequence[SpatialObject], side: float
) -> float:
    """Exact plane-sweep MaxRS weight over a window's contents."""
    if not contents:
        return 0.0
    region = plane_sweep_max(to_weighted_rects(contents, side, side))
    return 0.0 if region is None else region.weight


class InvariantMonitor:
    """Accumulates cross-layer invariant checks and their violations."""

    def __init__(
        self,
        *,
        guard: IngestGuard,
        queue: BackpressureQueue,
        side: float,
        stride: int = 0,
        weight_tol: float = _WEIGHT_TOL,
    ) -> None:
        self.guard = guard
        self.queue = queue
        self.side = float(side)
        self.stride = int(stride)
        self.weight_tol = float(weight_tol)
        self.violations: List[Dict[str, object]] = []
        self.ledger_checks = 0
        self.watermark_checks = 0
        self.guarantee_checks = 0
        self.convergence_checks = 0
        self._applied = 0
        self._last_watermark = float("-inf")

    @property
    def ok(self) -> bool:
        return not self.violations

    def _violate(self, phase: str, kind: str, detail: str) -> None:
        self.violations.append(
            {"phase": phase, "kind": kind, "detail": detail}
        )

    # -- per-tick checks ---------------------------------------------------

    def check_tick(self, phase: str, holdover: int) -> None:
        """Conservation, dead letters + watermark, on every arrival tick."""
        self.ledger_checks += 1
        guard, queue = self.guard, self.queue
        ingest_total = (
            guard.admitted
            + guard.quarantined
            + guard.skipped
            + guard.late_dropped
            + guard.reorder.pending
        )
        if guard.offered != ingest_total:
            self._violate(
                phase,
                "ingest_conservation",
                f"offered {guard.offered} != admitted {guard.admitted} + "
                f"quarantined {guard.quarantined} + skipped {guard.skipped} "
                f"+ late_dropped {guard.late_dropped} + reorder_pending "
                f"{guard.reorder.pending}",
            )
        dead_letters = guard.dead_letters.total_enqueued
        if dead_letters != guard.quarantined + guard.late_dropped:
            self._violate(
                phase,
                "dlq_completeness",
                f"dead letters {dead_letters} != quarantined "
                f"{guard.quarantined} + late_dropped {guard.late_dropped}",
            )
        downstream = (
            queue.processed
            + queue.shed
            + queue.spilled
            + queue.pending
            + holdover
        )
        if guard.admitted != downstream:
            self._violate(
                phase,
                "global_conservation",
                f"admitted {guard.admitted} != processed {queue.processed} "
                f"+ shed {queue.shed} + spilled {queue.spilled} + pending "
                f"{queue.pending} + holdover {holdover}",
            )
        if not queue.ledger_closed:
            self._violate(
                phase, "queue_ledger", f"queue ledger open: {queue.ledger}"
            )
        self.watermark_checks += 1
        watermark = guard.reorder.watermark
        if watermark < self._last_watermark:
            self._violate(
                phase,
                "watermark_regression",
                f"watermark regressed {self._last_watermark} -> {watermark}",
            )
        self._last_watermark = max(self._last_watermark, watermark)

    # -- per-batch checks --------------------------------------------------

    def note_batch(self, phase: str, monitor: "AdaptiveMonitor") -> None:
        """Count one applied batch; spot-check guarantees at the stride."""
        self._applied += 1
        if self.stride and self._applied % self.stride == 0:
            self._check_guarantee(phase, monitor)

    def _check_guarantee(self, phase: str, monitor: "AdaptiveMonitor") -> None:
        result: "MaxRSResult" = monitor.result
        # stale answers describe an older window; sampling answers carry
        # no deterministic floor — neither has a claim to check
        if result.stale_for > 0 or result.guarantee <= 0.0:
            return
        self.guarantee_checks += 1
        exact = exact_weight_over(list(monitor.window.contents), self.side)
        floor = result.guarantee * exact - self.weight_tol * max(
            1.0, abs(exact)
        )
        if result.best_weight < floor:
            self._violate(
                phase,
                "guarantee_floor",
                f"answer {result.best_weight:.6f} below "
                f"{result.guarantee:g} * exact {exact:.6f} "
                f"({result.mode})",
            )

    # -- convergence -------------------------------------------------------

    def check_convergence(
        self,
        phase: str,
        monitor: "AdaptiveMonitor",
        reference: "SlidingWindow",
        *,
        where: str,
        require_exact_mode: bool = True,
    ) -> None:
        """Window contents (and, in exact mode, the answer) must match
        the reference window fed with every applied batch."""
        self.convergence_checks += 1
        got = [
            (o.oid, o.x, o.y, o.weight, o.timestamp)
            for o in monitor.window.contents
        ]
        want = [
            (o.oid, o.x, o.y, o.weight, o.timestamp)
            for o in reference.contents
        ]
        if got != want:
            first = next(
                (i for i, (g, w) in enumerate(zip(got, want)) if g != w),
                min(len(got), len(want)),
            )
            self._violate(
                phase,
                "convergence_contents",
                f"{where}: window diverged from reference "
                f"({len(got)} vs {len(want)} objects, first difference "
                f"at position {first})",
            )
            return
        if not require_exact_mode:
            return
        if monitor.mode != monitor.EXACT:
            self._violate(
                phase,
                "convergence_mode",
                f"{where}: ladder still at {monitor.mode!r}, not exact",
            )
            return
        exact = exact_weight_over(list(reference.contents), self.side)
        answer = monitor.result.best_weight
        if abs(answer - exact) > self.weight_tol * max(1.0, abs(exact)):
            self._violate(
                phase,
                "convergence_answer",
                f"{where}: exact-mode answer {answer:.6f} != exact "
                f"companion {exact:.6f}",
            )
