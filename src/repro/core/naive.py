"""Naive baseline: recompute MaxRS from scratch on every window update.

This is the comparison algorithm of the paper's experiments (§7): the
optimal one-shot plane sweep [12, 18] re-run over the whole window each
time objects are generated.  It is exact and O(n log n) per update —
and, as the paper (and our Figures 7–9, 11) shows, hopeless for
monitoring because it cannot exploit the fact that only a small part of
the window changed.

``k > 1`` uses the single-sweep top-k collection, which the paper notes
costs no extra asymptotic work.
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from repro.core.monitor import MaxRSMonitor
from repro.core.objects import WeightedRect
from repro.core.planesweep import plane_sweep_max, plane_sweep_topk
from repro.core.spaces import MaxRSResult
from repro.errors import InvalidParameterError
from repro.window.base import SlidingWindow, WindowUpdate

__all__ = ["NaiveMonitor"]


class NaiveMonitor(MaxRSMonitor):
    """Recompute-from-scratch plane-sweep monitor (exact)."""

    def __init__(
        self,
        rect_width: float,
        rect_height: float,
        window: SlidingWindow,
        k: int = 1,
    ) -> None:
        super().__init__(rect_width, rect_height, window)
        if k <= 0:
            raise InvalidParameterError(f"k must be positive, got {k}")
        self.k = k
        self._alive: Deque[WeightedRect] = deque()

    def _on_delta(self, delta: WindowUpdate) -> None:
        for _ in delta.expired:
            self._alive.popleft()
        for obj in delta.arrived:
            self._alive.append(
                WeightedRect.from_object(obj, self.rect_width, self.rect_height)
            )

    def _compute_result(self, tick: int) -> MaxRSResult:
        rects = list(self._alive)
        if not rects:
            return MaxRSResult(tick=tick, window_size=0)
        self.stats.full_sweeps += 1
        self.stats.objects_swept += len(rects)
        if self.k == 1:
            region = plane_sweep_max(rects)
            return MaxRSResult.single(
                region, tick=tick, window_size=len(rects)
            )
        regions = plane_sweep_topk(rects, self.k)
        return MaxRSResult.ranked(regions, tick=tick, window_size=len(rects))
