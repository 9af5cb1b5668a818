"""IngestGuard: the validated, ordered boundary in front of every monitor.

Everything downstream of the guard — windows, indexes, monitors —
assumes clean, timestamp-ordered :class:`SpatialObject` instances.  The
guard is where dirty reality is converted into that contract:

* **validation** — raw payloads (CSV rows, dicts, tuples, or objects
  whose construction fails) are coerced to :class:`SpatialObject`;
  failures are handled per :class:`ErrorPolicy` (raise / skip /
  quarantine into the :class:`DeadLetterQueue`);
* **re-sequencing** — bounded-lateness out-of-order arrivals are
  absorbed by a :class:`ReorderBuffer` and re-emitted in timestamp
  order; records later than the bound are rejected (reason ``"late"``)
  instead of blowing up ``TimeWindow`` with ``WindowOrderError``;
* **accounting** — every record offered is counted exactly once, in
  plain attributes: :attr:`IngestGuard.admitted`, ``quarantined``,
  ``skipped`` and ``late_dropped``, with ``late_reordered`` and
  ``reorder.pending`` read from the reorder buffer and the dead-letter
  depth from ``len(dead_letters)``.  The soak harness proves from them
  that every injected fault is accounted for.

The guard works in both shapes the library uses: as a
:class:`StreamSource` wrapper (``StreamEngine(..., source=guard)``) and
as a batch filter (:meth:`IngestGuard.filter`, which the soak harness
and the end-to-end benchmark call ahead of their backpressure queue).
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Mapping, Sequence

from repro.core.objects import SpatialObject
from repro.errors import QuarantineError, ReproError
from repro.resilience.dlq import DeadLetter, DeadLetterQueue, ErrorPolicy
from repro.resilience.reorder import ReorderBuffer
from repro.streams.source import StreamSource

__all__ = ["IngestGuard", "coerce_record"]

_FIELD_NAMES = ("x", "y", "weight", "timestamp", "oid")


def coerce_record(record: object) -> SpatialObject:
    """Convert an arbitrary stream payload into a valid object.

    Accepts an already-valid :class:`SpatialObject`, a mapping with
    ``x``/``y`` (and optional ``weight``/``timestamp``/``oid``) keys,
    or a positional sequence ``(x, y[, weight[, timestamp]])``.
    Anything else — or any payload whose values fail
    :class:`SpatialObject` validation — raises a
    :class:`~repro.errors.ReproError` (or ``ValueError``/``TypeError``
    for hopeless payloads), which the guard maps to its error policy.
    """
    if isinstance(record, SpatialObject):
        # constructed objects are validated in __post_init__; re-check
        # the invariants cheaply in case the instance was forged around
        # the constructor (object.__new__, deserialisation, chaos)
        if not (
            math.isfinite(record.x)
            and math.isfinite(record.y)
            and record.weight >= 0.0
            and not math.isnan(record.timestamp)
        ):
            raise ValueError(f"forged invalid object: {record!r}")
        return record
    if isinstance(record, Mapping):
        kwargs = {k: record[k] for k in _FIELD_NAMES if k in record}
        if "x" not in kwargs or "y" not in kwargs:
            raise ValueError(f"record mapping missing x/y: {record!r}")
        for key in ("x", "y", "weight", "timestamp"):
            if key in kwargs:
                kwargs[key] = float(kwargs[key])
        if "oid" in kwargs:
            kwargs["oid"] = int(kwargs["oid"])
        return SpatialObject(**kwargs)
    if isinstance(record, Sequence) and not isinstance(record, (str, bytes)):
        if not 2 <= len(record) <= 5:
            raise ValueError(
                f"record sequence must have 2-5 fields, got {record!r}"
            )
        values = [float(v) for v in record[:4]]
        return SpatialObject(*values)
    raise TypeError(f"cannot interpret stream record {record!r}")


class IngestGuard(StreamSource):
    """Validating, re-sequencing stream boundary with a dead-letter queue.

    Args:
        source: Optional upstream producer of records (raw payloads or
            objects).  Required for iterator use; the batch API
            (:meth:`filter` / :meth:`flush`) works without one.
        policy: What to do with rejected records (default QUARANTINE).
        max_lateness: Lateness bound for the reorder buffer; ``0``
            means strict order (any out-of-order record is late).
        dead_letters: Share an existing queue, or let the guard own one.
        dlq_capacity: Capacity of the owned queue when none is shared.
    """

    def __init__(
        self,
        source: StreamSource | Iterator[object] | None = None,
        *,
        policy: ErrorPolicy | str = ErrorPolicy.QUARANTINE,
        max_lateness: float = 0.0,
        dead_letters: DeadLetterQueue | None = None,
        dlq_capacity: int = 1024,
    ) -> None:
        self._source = source
        self.policy = ErrorPolicy.parse(policy)
        self.dead_letters = dead_letters or DeadLetterQueue(dlq_capacity)
        self.reorder = ReorderBuffer(max_lateness)
        self.admitted = 0
        self.quarantined = 0  # invalid records rejected
        self.skipped = 0  # invalid records dropped under SKIP
        self.late_dropped = 0  # orderable-no-more records rejected
        self._seq = 0  # arrival position, for dead-letter context

    # -- accounting --------------------------------------------------------

    @property
    def late_reordered(self) -> int:
        """Out-of-order records absorbed and re-sequenced in bound."""
        return self.reorder.reordered

    @property
    def rejected(self) -> int:
        """Everything refused admission, for accounting checks."""
        return self.quarantined + self.skipped + self.late_dropped

    @property
    def offered(self) -> int:
        """Records presented to the guard so far.

        Conservation law (checked by the chaos soak)::

            offered == admitted + rejected + reorder.pending
        """
        return self._seq

    # -- core admission ----------------------------------------------------

    def admit(self, record: object) -> list[SpatialObject]:
        """Validate + re-sequence one record; return releasable objects.

        The returned list holds zero or more objects (buffered records
        released by an advancing watermark ride along with the record
        that advanced it), in non-decreasing timestamp order.
        """
        self._seq += 1
        try:
            obj = coerce_record(record)
        except (ReproError, ValueError, TypeError) as exc:
            self._reject(record, "invalid", str(exc))
            return []
        released = self.reorder.offer(obj)
        if released is None:
            self._reject(
                obj,
                "late",
                f"timestamp {obj.timestamp} behind watermark "
                f"{self.reorder.watermark} (max_lateness="
                f"{self.reorder.max_lateness})",
                late=True,
            )
            return []
        self.admitted += len(released)
        return released

    def filter(self, records: Sequence[object]) -> list[SpatialObject]:
        """Batch admission: guard a whole arrival batch at once."""
        out: list[SpatialObject] = []
        for record in records:
            out.extend(self.admit(record))
        return out

    def flush(self) -> list[SpatialObject]:
        """Release everything the reorder buffer still holds, in order."""
        released = self.reorder.flush()
        self.admitted += len(released)
        return released

    def __iter__(self) -> Iterator[SpatialObject]:
        """Stream mode: guard the wrapped source, flushing at the end."""
        if self._source is None:
            raise ReproError(
                "IngestGuard has no source; construct with one or use "
                "the batch API (filter/flush)"
            )
        for record in self._source:
            yield from self.admit(record)
        yield from self.flush()

    # -- rejection paths ---------------------------------------------------

    def _reject(
        self, record: object, reason: str, detail: str, late: bool = False
    ) -> None:
        if late:
            self.late_dropped += 1
        if self.policy is ErrorPolicy.RAISE:
            raise QuarantineError(f"{reason}: {detail}", record=record)
        if self.policy is ErrorPolicy.SKIP:
            if not late:
                self.skipped += 1
            return
        if not late:
            self.quarantined += 1
        self.dead_letters.put(
            DeadLetter(record=record, reason=reason, detail=detail, seq=self._seq)
        )
