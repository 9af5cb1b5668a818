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
directly observable in tests and benchmarks.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

from repro.core.objects import SpatialObject
from repro.core.spaces import MaxRSResult
from repro.errors import InvalidParameterError
from repro.obs.metrics import NULL_METRICS, Metrics
from repro.window.base import SlidingWindow, WindowUpdate

__all__ = ["MonitorStats", "MaxRSMonitor"]


@dataclass(slots=True)
class MonitorStats:
    """Operation counters accumulated across a monitor's lifetime."""

    updates: int = 0
    objects_seen: int = 0
    full_sweeps: int = 0
    local_sweeps: int = 0
    overlap_tests: int = 0
    cells_visited: int = 0
    cells_pruned: int = 0
    vertices_pruned: int = 0

    def snapshot(self) -> "MonitorStats":
        """An independent copy, for before/after deltas in tests."""
        return MonitorStats(
            updates=self.updates,
            objects_seen=self.objects_seen,
            full_sweeps=self.full_sweeps,
            local_sweeps=self.local_sweeps,
            overlap_tests=self.overlap_tests,
            cells_visited=self.cells_visited,
            cells_pruned=self.cells_pruned,
            vertices_pruned=self.vertices_pruned,
        )

    def reset(self) -> None:
        self.updates = 0
        self.objects_seen = 0
        self.full_sweeps = 0
        self.local_sweeps = 0
        self.overlap_tests = 0
        self.cells_visited = 0
        self.cells_pruned = 0
        self.vertices_pruned = 0


class MaxRSMonitor(ABC):
    """Base class for continuous MaxRS monitors.

    Args:
        rect_width: Width of the user-specified query rectangle.
        rect_height: Height of the query rectangle.
        window: The sliding window that defines which objects are alive.
            The monitor takes ownership: push batches through
            :meth:`update` rather than mutating the window directly.
    """

    #: which spatial index backs this monitor ("none" for index-free
    #: baselines); benchmark/profile rows carry it so a perf-gate
    #: failure names the offending index, not just the algorithm
    index_backend: str = "none"

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
        # observability attachment point: a no-op registry until an
        # engine (or caller) attaches a real one via attach_metrics()
        self.metrics: Metrics = NULL_METRICS
        self._last_result = MaxRSResult()

    # -- public API ------------------------------------------------------

    def attach_metrics(self, metrics: Metrics) -> None:
        """Attach a metrics scope; the window gets a ``window`` child.

        Instrumented hot paths emit into whatever registry is attached;
        the default :data:`~repro.obs.metrics.NULL_METRICS` makes every
        emission a no-op, so monitors built without observability pay
        essentially nothing.
        """
        self.metrics = metrics
        self.window.metrics = metrics.scope("window")

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

    def _account(self, delta: WindowUpdate) -> None:
        self.stats.updates += 1
        self.stats.objects_seen += len(delta.arrived)
        self.metrics.inc("updates")
        self.metrics.inc("objects_seen", len(delta.arrived))

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
