"""Multiple continuous MaxRS queries over one stream (paper §8).

The paper's future-work section asks for efficient handling of several
continuous MaxRS queries at the same time — different rectangle sizes,
window lengths, tolerances or k over one physical stream.
:class:`MultiQueryGroup` is the serving layer for that: registered
queries share every arrival batch (objects are materialised once),
each keeps its own window and index, and results come back per query
name.  Queries can be added and removed while the stream is live; a
late-added query can be backfilled from another query's window.

The group is a fan-out, not a serving front: it takes clean batches.
Validation, reordering and backpressure live upstream, in the driver
that also fronts :class:`~repro.engine.engine.StreamEngine`
(``IngestGuard`` → ``BackpressureQueue`` → batches).
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.core.monitor import MaxRSMonitor
from repro.core.objects import SpatialObject
from repro.core.spaces import MaxRSResult
from repro.errors import InvalidParameterError

__all__ = ["MultiQueryGroup"]


class MultiQueryGroup:
    """A named set of monitors fed by one stream.

    Example::

        group = MultiQueryGroup()
        group.add("coarse", AG2Monitor(2000, 2000, CountWindow(50_000)))
        group.add("fine", AG2Monitor(500, 500, CountWindow(50_000)))
        for batch in stream:
            results = group.update(batch)      # {"coarse": ..., "fine": ...}
    """

    def __init__(self) -> None:
        self._monitors: Dict[str, MaxRSMonitor] = {}

    # -- registry -----------------------------------------------------------

    def add(self, name: str, monitor: MaxRSMonitor) -> None:
        """Register a query under a unique name."""
        if not name:
            raise InvalidParameterError("query name must be non-empty")
        if name in self._monitors:
            raise InvalidParameterError(f"query {name!r} already registered")
        self._monitors[name] = monitor

    def add_backfilled(
        self, name: str, monitor: MaxRSMonitor, source: str
    ) -> None:
        """Register a query and bulk-load it with the alive objects of
        an existing query — so a freshly added query answers over the
        same history instead of starting cold."""
        donor = self._monitors.get(source)
        if donor is None:
            raise InvalidParameterError(f"unknown source query {source!r}")
        self.add(name, monitor)
        contents = donor.window.contents
        if contents:
            monitor.ingest(list(contents))

    def remove(self, name: str) -> MaxRSMonitor:
        """Unregister and return a query's monitor."""
        monitor = self._monitors.pop(name, None)
        if monitor is None:
            raise InvalidParameterError(f"unknown query {name!r}")
        return monitor

    def __contains__(self, name: str) -> bool:
        return name in self._monitors

    def __len__(self) -> int:
        return len(self._monitors)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._monitors)

    def monitor(self, name: str) -> MaxRSMonitor:
        got = self._monitors.get(name)
        if got is None:
            raise InvalidParameterError(f"unknown query {name!r}")
        return got

    # -- serving -------------------------------------------------------------

    def update(
        self, batch: Sequence[SpatialObject]
    ) -> Dict[str, MaxRSResult]:
        """Push one arrival batch through every registered query."""
        if not self._monitors:
            raise InvalidParameterError(
                "no queries registered; add() one before update()"
            )
        return {
            name: monitor.update(batch)
            for name, monitor in self._monitors.items()
        }

    def results(self) -> Dict[str, MaxRSResult]:
        """Most recent answer per query without pushing anything."""
        return {
            name: monitor.result for name, monitor in self._monitors.items()
        }
