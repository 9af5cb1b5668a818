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
from typing import Iterable, List, Tuple

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

    def offer(self, obj: SpatialObject) -> list[SpatialObject] | None:
        """Feed one record; return newly releasable records, in
        timestamp order — or ``None`` when the record is later than
        ``max_lateness`` allows (the caller decides drop vs raise).

        Emission rule: a record leaves the buffer once the watermark
        reaches its timestamp, so nothing emitted can ever be trailed
        by an admissible record with a smaller timestamp.  A record the
        new watermark already passes, offered to an empty buffer, is
        released as it is, without a heap round trip: every in-order
        record when ``max_lateness`` is 0.
        """
        ts = obj.timestamp
        if ts < self._max_seen - self.max_lateness:
            return None
        if ts < self._max_seen:
            self.reordered += 1
        if ts > self._max_seen:
            self._max_seen = ts
        if not self._heap and ts <= self._max_seen - self.max_lateness:
            return [obj]
        heapq.heappush(self._heap, (ts, next(self._seq), obj))
        return self._release(self.watermark)

    def offer_all(
        self, objects: Iterable[SpatialObject]
    ) -> tuple[list[SpatialObject], list[SpatialObject]]:
        """Feed many records; return ``(released, too_late)``."""
        released: list[SpatialObject] = []
        too_late: list[SpatialObject] = []
        for obj in objects:
            out = self.offer(obj)
            if out is None:
                too_late.append(obj)
            else:
                released.extend(out)
        return released, too_late

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
