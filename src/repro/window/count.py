"""Count-based sliding window: the most recent ``n`` objects (paper §2).

``m`` new generations expire the ``m`` oldest objects once the window is
full — exactly the model the paper's experiments assume.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Sequence

from repro.core.objects import SpatialObject
from repro.errors import InvalidParameterError
from repro.window.base import SlidingWindow, WindowUpdate

__all__ = ["CountWindow"]


class CountWindow(SlidingWindow):
    """Sliding window holding at most ``capacity`` recent objects."""

    def __init__(self, capacity: int) -> None:
        super().__init__()
        if capacity <= 0:
            raise InvalidParameterError(
                f"count window capacity must be positive, got {capacity}"
            )
        self.capacity = capacity
        self._items: Deque[SpatialObject] = deque()

    def push(self, objects: Sequence[SpatialObject]) -> WindowUpdate:
        """Admit ``objects``; evict the oldest beyond ``capacity``.

        When a single batch exceeds the capacity only its newest
        ``capacity`` objects actually enter the window; the skipped ones
        appear in neither ``arrived`` nor ``expired`` (they were never
        alive).
        """
        tick = self._next_tick()
        if len(objects) > self.capacity:
            # whole previous content expires; only the batch tail enters
            expired = tuple(self._items)
            self._items.clear()
            admitted = tuple(objects[-self.capacity:])
            self._items.extend(admitted)
            return WindowUpdate(arrived=admitted, expired=expired, tick=tick)
        self._items.extend(objects)
        overflow = len(self._items) - self.capacity
        expired_list = [self._items.popleft() for _ in range(max(0, overflow))]
        return WindowUpdate(
            arrived=tuple(objects), expired=tuple(expired_list), tick=tick
        )

    @property
    def contents(self) -> tuple[SpatialObject, ...]:
        return tuple(self._items)

    def __len__(self) -> int:
        return len(self._items)

    @property
    def is_full(self) -> bool:
        return len(self._items) >= self.capacity

    def clear(self) -> None:
        self._items.clear()
