"""Watermark reorder buffer: bounded-lateness out-of-order absorption.

:class:`TimeWindow` requires non-decreasing timestamps (Property 3 —
expiry in arrival order — depends on it).  Real streams violate that:
network jitter and retried producers deliver records a little late.
The standard streaming answer is a *watermark*: track the maximum
timestamp seen, subtract an allowed lateness bound, and hold records
back in a small buffer until the watermark passes them, emitting in
timestamp order.  Records later than the bound cannot be re-sequenced
without stalling the stream and are handed back to the caller's error
policy instead.

The invariant this buffer guarantees: the emitted sequence has
non-decreasing timestamps, for any input sequence — which is exactly
the precondition :meth:`TimeWindow.push` enforces.
"""

from __future__ import annotations

import heapq
import itertools
from typing import List, Tuple

from repro.core.objects import SpatialObject
from repro.errors import InvalidParameterError

__all__ = ["ReorderBuffer"]


class ReorderBuffer:
    """Min-heap buffer emitting records in timestamp order.

    Args:
        max_lateness: How far (in timestamp units) a record may lag the
            maximum timestamp seen and still be re-sequenced.  ``0``
            keeps in-order records flowing through unbuffered and
            classifies any out-of-order record as too late.

    Counts: :attr:`reordered` (out-of-order records absorbed) and
    :attr:`pending` (records buffered now).
    """

    def __init__(self, max_lateness: float = 0.0) -> None:
        if max_lateness < 0:
            raise InvalidParameterError(
                f"max_lateness must be >= 0, got {max_lateness}"
            )
        self.max_lateness = float(max_lateness)
        self._heap: List[Tuple[float, int, SpatialObject]] = []
        self._seq = itertools.count()
        self._max_seen = float("-inf")
        self.reordered = 0  # records absorbed out of arrival order

    @property
    def watermark(self) -> float:
        """Completeness frontier: no record older than this is on time."""
        return self._max_seen - self.max_lateness

    @property
    def pending(self) -> int:
        """Records currently held back waiting for the watermark."""
        return len(self._heap)

    @property
    def floor(self) -> float | None:
        """Where a batch released whole on arrival must start: the
        maximum timestamp seen, when ``max_lateness`` is 0 and nothing
        is held; else ``None``.  A batch whose timestamps start at or
        above it and never fall is released record by record as it
        arrives (see :meth:`accept`)."""
        if self.max_lateness == 0.0 and not self._heap:
            return self._max_seen
        return None

    def advance(self, top: float) -> None:
        """Take a batch released whole from :attr:`floor`: ``top`` is the
        maximum seen after it, as :meth:`accept` would have kept it."""
        self._max_seen = top

    def accept(
        self, obj: SpatialObject, out: list[SpatialObject]
    ) -> bool | None:
        """Take one record of a batch without releasing the buffer.

        Returns ``True`` when the record is released at once (appended
        to ``out``), ``False`` when it is held back, and ``None`` when
        it is later than ``max_lateness`` allows (the caller decides
        drop vs raise).  A record the new watermark already passes,
        offered to an empty buffer, takes the first path without a
        heap round trip: every in-order record when ``max_lateness`` is
        0.  Held records leave with :meth:`release`; a batch calls it
        once, at its final watermark, and emits what per-record
        releases would have: the watermark only rises, so every record
        still admissible has a timestamp at or above every record a
        lower watermark would already have released, and ties leave in
        arrival order either way.
        """
        ts = obj.timestamp
        max_seen = self._max_seen
        if ts < max_seen - self.max_lateness:
            return None
        if ts < max_seen:
            self.reordered += 1
        elif ts > max_seen:
            self._max_seen = max_seen = ts
        if not self._heap and ts <= max_seen - self.max_lateness:
            out.append(obj)
            return True
        heapq.heappush(self._heap, (ts, next(self._seq), obj))
        return False

    def release(self) -> list[SpatialObject]:
        """Release every held record the watermark has passed, in
        timestamp order.

        Emission rule: a record leaves the buffer once the watermark
        reaches its timestamp, so nothing emitted can ever be trailed
        by an admissible record with a smaller timestamp.
        """
        return self._release(self.watermark)

    def flush(self) -> list[SpatialObject]:
        """Drain everything still buffered, in timestamp order.

        Call at end-of-stream (or checkpoint barrier); afterwards the
        watermark is effectively the max timestamp seen.
        """
        return self._release(float("inf"))

    def _release(self, frontier: float) -> list[SpatialObject]:
        out: list[SpatialObject] = []
        while self._heap and self._heap[0][0] <= frontier:
            out.append(heapq.heappop(self._heap)[2])
        return out
