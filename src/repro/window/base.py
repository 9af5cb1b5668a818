"""Sliding-window abstraction (paper §2).

The paper supports both count-based and time-based sliding windows; the
algorithms only ever see the *delta* of a window transition — which
objects arrived and which expired — so the window types share a single
interface: :meth:`SlidingWindow.push` returns a :class:`WindowUpdate`
delta and the indexes consume it.

A crucial structural fact the indexes rely on (Property 3): objects
expire in arrival order.  Both window types preserve this — the count
window by construction, the time window by requiring non-decreasing
timestamps.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

from repro.core.objects import SpatialObject

__all__ = ["WindowUpdate", "SlidingWindow"]


@dataclass(frozen=True, slots=True)
class WindowUpdate:
    """Delta produced by one window transition.

    Attributes:
        arrived: Objects that entered the window, oldest first.  An
            object that arrives and instantly exceeds the window bound
            (e.g. a batch larger than a count window) appears in
            *neither* list.
        expired: Objects that left the window, oldest first.
        tick: Monotone transition counter of the producing window.
    """

    arrived: tuple[SpatialObject, ...] = ()
    expired: tuple[SpatialObject, ...] = ()
    tick: int = 0

    @property
    def is_noop(self) -> bool:
        return not self.arrived and not self.expired


class SlidingWindow(ABC):
    """Common behaviour of count- and time-based windows."""

    def __init__(self) -> None:
        self._tick = 0

    @abstractmethod
    def push(self, objects: Sequence[SpatialObject]) -> WindowUpdate:
        """Admit a batch of newly generated objects; return the delta."""

    @property
    @abstractmethod
    def contents(self) -> tuple[SpatialObject, ...]:
        """Alive objects, oldest first."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of alive objects."""

    @abstractmethod
    def clear(self) -> None:
        """Drop all alive objects and reset derived state (not the tick)."""

    @property
    def tick(self) -> int:
        """Number of transitions performed so far."""
        return self._tick

    def resume_at(self, tick: int) -> None:
        """Continue counting transitions from ``tick``: a restored
        window is rebuilt by one bulk push, but its answers must keep
        the original window's tick sequence."""
        self._tick = tick

    def _next_tick(self) -> int:
        self._tick += 1
        return self._tick
