"""Monitor abstraction: the continuous-query surface of the library.

Every algorithm in the paper — the naive recompute baseline, the G2
basic monitor (Algorithm 1), the aG2 branch-and-bound monitor
(Algorithm 2), its approximate variant and the top-k variant — is a
:class:`MaxRSMonitor`: push a batch of newly generated objects, get the
current MaxRS answer back.  The monitor owns its sliding window; callers
that manage their own window can feed deltas through :meth:`apply`.

Monitors also expose :class:`MonitorStats`, cheap counters of the
dominant operations (local sweeps, pairwise overlap tests, cell
visits/prunes).  The paper's efficiency argument is entirely about
avoiding ``Local-Plane-Sweep`` executions; the counters make that
directly observable in tests and benchmarks.  They are the monitors'
only counters, and nothing mirrors them: :func:`repro.bench.measure`
(behind ``maxrs-stream profile``) reads a batch's counts as the
difference of two :meth:`MonitorStats.snapshot` copies.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, fields, replace
from typing import Sequence

from repro.core.objects import SpatialObject
from repro.core.spaces import MaxRSResult
from repro.errors import InvalidParameterError
from repro.window.base import SlidingWindow, WindowUpdate

__all__ = ["MonitorStats", "MaxRSMonitor"]


@dataclass(slots=True)
class MonitorStats:
    """Operation counters accumulated across a monitor's lifetime.

    Every field is a monotone count, so :meth:`delta` between two
    snapshots is never negative.
    """

    updates: int = 0
    objects_seen: int = 0
    objects_expired: int = 0
    full_sweeps: int = 0
    objects_swept: int = 0
    local_sweeps: int = 0
    cell_sweeps: int = 0
    overlap_tests: int = 0
    edges_touched: int = 0
    cells_visited: int = 0
    cells_scanned: int = 0
    cells_pruned: int = 0
    vertices_pruned: int = 0
    upper_bound_recomputes: int = 0
    bound_tightenings: int = 0
    nodes_expanded: int = 0

    def snapshot(self) -> "MonitorStats":
        """An independent copy, for before/after deltas."""
        return replace(self)

    def reset(self) -> None:
        for f in fields(self):
            setattr(self, f.name, 0)

    def delta(self, earlier: "MonitorStats") -> dict[str, int]:
        """Per-field increase since ``earlier``, keyed by field name."""
        return {
            f.name: getattr(self, f.name) - getattr(earlier, f.name)
            for f in fields(self)
        }


class MaxRSMonitor(ABC):
    """Base class for continuous MaxRS monitors.

    Args:
        rect_width: Width of the user-specified query rectangle.
        rect_height: Height of the query rectangle.
        window: The sliding window that defines which objects are alive.
            The monitor takes ownership: push batches through
            :meth:`update` rather than mutating the window directly.
    """

    def __init__(
        self,
        rect_width: float,
        rect_height: float,
        window: SlidingWindow,
    ) -> None:
        if rect_width <= 0 or rect_height <= 0:
            raise InvalidParameterError(
                "query rectangle size must be positive, got "
                f"{rect_width} x {rect_height}"
            )
        self.rect_width = float(rect_width)
        self.rect_height = float(rect_height)
        self.window = window
        self.stats = MonitorStats()
        self._last_result = MaxRSResult()

    # -- public API ------------------------------------------------------

    def update(self, objects: Sequence[SpatialObject]) -> MaxRSResult:
        """Push a batch of newly generated objects; return the new answer.

        This is the continuous-query step: the window admits the batch
        and expires stale objects, and the monitor incrementally (or for
        the naive baseline, from scratch) refreshes ``s*``.
        """
        delta = self.window.push(objects)
        return self.apply(delta)

    def ingest(self, objects: Sequence[SpatialObject]) -> None:
        """Admit a batch without producing an answer.

        Index state is fully maintained, only the answer derivation is
        skipped — for incremental monitors that derivation is nearly
        free, but for the naive baseline it is the entire O(n log n)
        sweep, so bulk-loading a window (benchmark priming, recovery
        replay) should go through ``ingest``.
        """
        delta = self.window.push(objects)
        self._account(delta)
        self._on_delta(delta)

    def apply(self, delta: WindowUpdate) -> MaxRSResult:
        """Consume an externally produced window delta (advanced use:
        several monitors sharing one window, or time-window
        ``advance_to`` expirations)."""
        self._account(delta)
        self._on_delta(delta)
        self._last_result = self._compute_result(delta.tick)
        return self._last_result

    def refresh(self) -> MaxRSResult:
        """Re-derive the answer over the current window, admitting
        nothing; stamped with the window's current tick.  A monitor
        rebuilt from its window (restore, heal) answers through this."""
        self._last_result = self._compute_result(self.window.tick)
        return self._last_result

    def _account(self, delta: WindowUpdate) -> None:
        stats = self.stats
        stats.updates += 1
        stats.objects_seen += len(delta.arrived)
        stats.objects_expired += len(delta.expired)

    @property
    def result(self) -> MaxRSResult:
        """The most recently computed answer."""
        return self._last_result

    # -- algorithm hooks ---------------------------------------------------

    @abstractmethod
    def _on_delta(self, delta: WindowUpdate) -> None:
        """Integrate arrivals/expirations into the monitor's index."""

    @abstractmethod
    def _compute_result(self, tick: int) -> MaxRSResult:
        """Produce the answer for the current window state."""
