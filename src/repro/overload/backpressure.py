"""Bounded arrival buffer with shed policies and a conservation ledger.

:class:`BackpressureQueue` sits between a stream source and the
monitors.  Arrivals are *offered* to the queue; the engine *takes*
coalesced batches out of it at whatever pace the monitors sustain.
When arrivals outrun the drain rate the queue fills, and the configured
:class:`ShedPolicy` decides what gives:

* ``BLOCK`` — nothing is dropped; excess offers are *refused* and stay
  upstream (the producer waits).  Queue depth stays bounded, arrival
  latency grows.
* ``SHED_OLDEST`` — the oldest *pending* object is dropped to make
  room.  Freshness-biased: right for monitoring, where a stale object
  is about to expire from the window anyway.

Every object is accounted for exactly once, mirroring the dead-letter
accounting of :mod:`repro.resilience`:

    ``offered == processed + shed + refused + spilled + pending``

which :attr:`BackpressureQueue.ledger_closed` verifies and the overload
soak harness asserts at end of run.  The ledger's attributes are the
queue's only counts; its depth is :attr:`BackpressureQueue.pending`.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Deque, Dict, Iterable, Sequence

from repro.core.objects import SpatialObject
from repro.errors import InvalidParameterError

__all__ = ["BackpressureQueue", "ShedPolicy"]


class ShedPolicy(enum.Enum):
    """What a full queue does with the overflow."""

    BLOCK = "block"
    SHED_OLDEST = "shed_oldest"

    @classmethod
    def coerce(cls, value: "ShedPolicy | str") -> "ShedPolicy":
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).lower().replace("-", "_"))
        except ValueError:
            choices = ", ".join(p.value for p in cls)
            raise InvalidParameterError(
                f"unknown shed policy {value!r}; choose one of {choices}"
            ) from None


class BackpressureQueue:
    """Bounded FIFO arrival buffer with coalescing batch drains.

    Args:
        capacity: Maximum number of buffered objects.
        policy: What happens to overflow (see :class:`ShedPolicy`).
        max_batch: Coalescing limit — :meth:`take_batch` never returns
            more than this many objects, so a deep backlog drains as a
            few large (but bounded) batches instead of one giant one.
    """

    def __init__(
        self,
        capacity: int,
        policy: ShedPolicy | str = ShedPolicy.SHED_OLDEST,
        max_batch: int | None = None,
    ) -> None:
        if capacity <= 0:
            raise InvalidParameterError(
                f"queue capacity must be positive, got {capacity}"
            )
        if max_batch is not None and max_batch <= 0:
            raise InvalidParameterError(
                f"max_batch must be positive, got {max_batch}"
            )
        self.capacity = int(capacity)
        self.policy = ShedPolicy.coerce(policy)
        self.max_batch = int(max_batch) if max_batch is not None else None
        self._items: Deque[SpatialObject] = deque()
        # conservation ledger
        self.offered = 0
        self.processed = 0
        self.shed = 0  # pending objects dropped to make room
        self.refused = 0
        self.spilled = 0  # pending objects lost to a crash (spill())
        self.high_water = 0  # deepest the queue ever got

    # -- state ---------------------------------------------------------------

    @property
    def pending(self) -> int:
        """Objects buffered and not yet taken."""
        return len(self._items)

    @property
    def ledger(self) -> Dict[str, int]:
        """The conservation ledger as plain data."""
        return {
            "offered": self.offered,
            "processed": self.processed,
            "shed": self.shed,
            "refused": self.refused,
            "spilled": self.spilled,
            "pending": self.pending,
            "high_water": self.high_water,
        }

    @property
    def ledger_closed(self) -> bool:
        """True iff no object is unaccounted for."""
        return self.offered == (
            self.processed
            + self.shed
            + self.refused
            + self.spilled
            + self.pending
        )

    # -- producer side -------------------------------------------------------

    def offer(self, obj: SpatialObject) -> bool:
        """Offer one object; return False iff it was refused (``BLOCK``).

        Under ``SHED_OLDEST`` the offer always succeeds: the oldest
        pending object makes room, and the shed is counted in the
        ledger.
        """
        self.offered += 1
        if len(self._items) >= self.capacity:
            if self.policy is ShedPolicy.BLOCK:
                self.refused += 1
                return False
            self._items.popleft()
            self.shed += 1
        self._items.append(obj)
        if len(self._items) > self.high_water:
            self.high_water = len(self._items)
        return True

    def offer_all(
        self, objects: Iterable[SpatialObject]
    ) -> list[SpatialObject]:
        """Offer many objects; return the ones *refused* (``BLOCK`` only).

        The caller owns refused objects — under BLOCK they never entered
        the queue and should be re-offered once depth recedes.  The
        ledger and the queue end as after one :meth:`offer` per object,
        in order: BLOCK refuses the tail that finds no room, SHED_OLDEST
        keeps the newest ``max(capacity, pending)`` of queue and batch.
        """
        batch = list(objects)
        items = self._items
        depth = len(items)
        self.offered += len(batch)
        if self.policy is ShedPolicy.BLOCK:
            room = max(self.capacity - depth, 0)
            back = batch[room:]
            self.refused += len(back)
            items.extend(batch[:room])
        else:
            back = []
            items.extend(batch)
            drop = len(items) - max(self.capacity, depth)
            if drop > 0:
                self.shed += drop
                for _ in range(drop):
                    items.popleft()
        if len(items) > self.high_water:
            self.high_water = len(items)
        return back

    # -- consumer side -------------------------------------------------------

    def take_batch(self, max_size: int | None = None) -> list[SpatialObject]:
        """Drain up to ``max_size`` (default: the queue's ``max_batch``)
        objects as one coalesced arrival batch, oldest first."""
        limit = max_size if max_size is not None else self.max_batch
        if limit is not None and limit <= 0:
            raise InvalidParameterError(
                f"batch limit must be positive, got {limit}"
            )
        items = self._items
        if limit is None or limit >= len(items):
            batch = list(items)
            items.clear()
        else:
            batch = [items.popleft() for _ in range(limit)]
        self.processed += len(batch)
        return batch

    def spill(self, wal=None) -> int:
        """Drop everything pending, keeping the ledger closed.

        Models a crash of the consumer tier taking its in-flight buffer
        with it: the lost objects move from ``pending`` to ``spilled``
        — an explicit ledger bucket, not a silent leak — and the count
        is returned.  The queue itself (counters, capacity, policy)
        keeps serving.

        When a :class:`~repro.durability.wal.WriteAheadLog` is passed,
        the buffer is journalled (a ``spill`` record at the WAL's
        current batch index, force-synced) before being dropped — the
        crash loses nothing, and recovery re-queues the spilled objects
        via :meth:`restore_spilled`.  An *empty* spill is journalled
        too: the record marks which crash is newest, so recovery never
        restores a stale buffer from an earlier incident.
        """
        lost = len(self._items)
        if wal is not None:
            wal.log_spill(list(self._items), index=wal.last_index)
        if lost:
            self._items.clear()
            self.spilled += lost
        return lost

    def restore_spilled(self, objects: Sequence[SpatialObject]) -> int:
        """Re-queue objects recovered from a journalled spill.

        The inverse bookkeeping of :meth:`spill`: the objects move from
        ``spilled`` back to ``pending`` without touching ``offered`` —
        they were already offered (and admitted) once, so re-offering
        them would double-count and break :attr:`ledger_closed`.  Only
        as many objects as the ``spilled`` bucket holds can be
        restored; more means the WAL and this queue disagree about
        history, which is a caller bug.
        """
        count = len(objects)
        if count == 0:
            return 0
        if count > self.spilled:
            raise InvalidParameterError(
                f"cannot restore {count} spilled objects; ledger only "
                f"records {self.spilled} as spilled"
            )
        self._items.extend(objects)
        self.spilled -= count
        if len(self._items) > self.high_water:
            self.high_water = len(self._items)
        return count

    def drain(self, batch_size: int) -> Iterable[Sequence[SpatialObject]]:
        """Yield coalesced batches until the queue is empty."""
        while self._items:
            yield self.take_batch(batch_size)
