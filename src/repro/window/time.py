"""Time-based sliding window: objects generated in the last ``T`` units.

Timestamps must be non-decreasing across pushes — that is what
guarantees expiration in arrival order, the structural property
(Property 3) the graph indexes rely on.  Out-of-order batches raise
:class:`~repro.errors.WindowOrderError` rather than silently corrupting
index state.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Sequence

from repro.core.objects import SpatialObject
from repro.errors import InvalidParameterError, WindowOrderError
from repro.window.base import SlidingWindow, WindowUpdate

__all__ = ["TimeWindow"]


class TimeWindow(SlidingWindow):
    """Sliding window keeping objects with ``timestamp > now - duration``.

    ``now`` advances to the newest timestamp seen (via :meth:`push`) or
    explicitly via :meth:`advance_to` for pure time passage without
    arrivals.
    """

    def __init__(self, duration: float) -> None:
        super().__init__()
        if not duration > 0:
            raise InvalidParameterError(
                f"time window duration must be positive, got {duration}"
            )
        self.duration = duration
        self._items: Deque[SpatialObject] = deque()
        self._now = float("-inf")

    @property
    def now(self) -> float:
        """The latest time the window has been advanced to."""
        return self._now

    def push(self, objects: Sequence[SpatialObject]) -> WindowUpdate:
        """Admit ``objects`` (non-decreasing timestamps) and expire.  A
        refused batch changes nothing, the tick included."""
        # guard against self._now even when the window has drained empty:
        # a timestamp before the current window time is a time-travel
        # push whether or not any object is still alive (advance_to
        # already rejects the same regression)
        last = self._now
        for obj in objects:
            if obj.timestamp < last:
                raise WindowOrderError(
                    f"object {obj.oid} has timestamp {obj.timestamp} "
                    f"before window time {last}"
                )
            last = obj.timestamp
        tick = self._next_tick()
        if objects:
            self._now = max(self._now, objects[-1].timestamp)
        # batch members already out of range never become alive: they
        # appear in neither delta list (same convention as CountWindow
        # overflow), so ``expired`` is always a subset of past arrivals.
        admitted = tuple(o for o in objects if self._alive(o))
        self._items.extend(admitted)
        expired = self._expire()
        return WindowUpdate(arrived=admitted, expired=expired, tick=tick)

    def advance_to(self, now: float) -> WindowUpdate:
        """Move time forward without arrivals, expiring stale objects."""
        if now < self._now:
            raise WindowOrderError(
                f"cannot move window time backwards: {now} < {self._now}"
            )
        tick = self._next_tick()
        self._now = now
        return WindowUpdate(expired=self._expire(), tick=tick)

    def _alive(self, obj: SpatialObject) -> bool:
        return obj.timestamp > self._now - self.duration

    def _expire(self) -> tuple[SpatialObject, ...]:
        cutoff = self._now - self.duration
        expired: list[SpatialObject] = []
        while self._items and self._items[0].timestamp <= cutoff:
            expired.append(self._items.popleft())
        return tuple(expired)

    @property
    def contents(self) -> tuple[SpatialObject, ...]:
        return tuple(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def clear(self) -> None:
        self._items.clear()
        self._now = float("-inf")
