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

:meth:`IngestGuard.filter` is the one admission loop.  Handed a
``list``, it first builds the objects of the wire records in one
compiled pass (:func:`admit_records`, the kernel's ``maxrs_admit``):
every plain dict with exact-float ``x``/``y``/``weight``/``timestamp``
and an exact-int ``oid`` that pass :class:`SpatialObject`'s checks.
Every other record, and every record of any other iterable, which is
read lazily, goes through one :func:`coerce_record` call (every mapping
is built positionally; plain dicts are recognised ahead of the ABC
checks).  In-order objects are appended straight to the output, and the
reorder buffer is released once per batch, at its final watermark.  The
soak harness and the end-to-end benchmark call it ahead of their
backpressure queue, and :meth:`IngestGuard.flush` drains the reorder
buffer at end of input.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence
from itertools import repeat

from repro.core import planesweep
from repro.core.objects import SpatialObject
from repro.errors import QuarantineError, ReproError
from repro.resilience.dlq import DeadLetter, DeadLetterQueue, ErrorPolicy
from repro.resilience.reorder import ReorderBuffer

__all__ = ["IngestGuard", "admit_records", "coerce_record"]

#: what a payload that cannot be coerced raises
_INVALID = (ReproError, ValueError, TypeError, OverflowError)


def _coerce_oid(value: object) -> int:
    oid = int(value)
    # a fractional oid names no object: refuse it rather than truncate
    if oid != value and not isinstance(value, (str, bytes)):
        raise ValueError(f"record oid must be integral, got {value!r}")
    return oid


def _from_mapping(record: Mapping) -> SpatialObject:
    """A mapping payload, built positionally: SpatialObject's defaults
    for absent keys, an auto oid only when none is given.  Keys are
    tested with ``in``, so a ``defaultdict`` lacking x/y is refused
    rather than defaulted."""
    if "x" not in record or "y" not in record:
        raise ValueError(f"record mapping missing x/y: {record!r}")
    x = float(record["x"])
    y = float(record["y"])
    weight = float(record["weight"]) if "weight" in record else 1.0
    ts = float(record["timestamp"]) if "timestamp" in record else 0.0
    if "oid" in record:
        oid = record["oid"]
        if type(oid) is not int:
            oid = _coerce_oid(oid)
        return SpatialObject(x, y, weight, ts, oid)
    return SpatialObject(x, y, weight, ts)


def coerce_record(record: object) -> SpatialObject:
    """Convert an arbitrary stream payload into a valid object.

    Accepts an already-valid :class:`SpatialObject`, a mapping with
    ``x``/``y`` (and optional ``weight``/``timestamp``/``oid``) keys,
    or a positional sequence ``(x, y[, weight[, timestamp[, oid]]])``.
    An oid must be integral (``3.0`` is oid 3, ``3.7`` is refused).
    Anything else — or any payload whose values fail
    :class:`SpatialObject` validation — raises a
    :class:`~repro.errors.ReproError` (or ``ValueError``/``TypeError``/
    ``OverflowError`` for hopeless payloads), which the guard maps to
    its error policy.
    """
    if type(record) is dict:
        # the wire shape, ahead of the ABC checks
        return _from_mapping(record)
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
        return _from_mapping(record)
    if isinstance(record, Sequence) and not isinstance(record, (str, bytes)):
        if not 2 <= len(record) <= 5:
            raise ValueError(
                f"record sequence must have 2-5 fields, got {record!r}"
            )
        values = [float(v) for v in record[:4]]
        if len(record) == 5:
            return SpatialObject(*values, _coerce_oid(record[4]))
        return SpatialObject(*values)
    raise TypeError(f"cannot interpret stream record {record!r}")


def admit_records(records: list) -> list[SpatialObject | None]:
    """One compiled pass over a batch (``maxrs_admit``): for each
    record, the object :func:`coerce_record` would build when the record
    is a plain dict with str keys holding all five fields, exact floats
    ``x``/``y``/``weight``/``timestamp`` that pass
    :class:`SpatialObject`'s checks and an exact-int ``oid``, holding
    the record's own value objects; ``None`` for every other record.
    It raises nothing for a record and never draws an auto oid."""
    return planesweep._KERNEL.admit(records, SpatialObject)


class IngestGuard:
    """Validating, re-sequencing stream boundary with a dead-letter queue.

    Args:
        policy: What to do with rejected records (default QUARANTINE).
        max_lateness: Lateness bound for the reorder buffer; ``0``
            means strict order (any out-of-order record is late).
        dead_letters: Share an existing queue, or let the guard own one.
        dlq_capacity: Capacity of the owned queue when none is shared.
    """

    def __init__(
        self,
        *,
        policy: ErrorPolicy | str = ErrorPolicy.QUARANTINE,
        max_lateness: float = 0.0,
        dead_letters: DeadLetterQueue | None = None,
        dlq_capacity: int = 1024,
    ) -> None:
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

    def filter(self, records: Iterable[object]) -> list[SpatialObject]:
        """Validate and re-sequence a batch; return releasable objects.

        The one admission loop: each record becomes an object once and
        is taken by the reorder buffer, which is released once, at the
        batch's final watermark.  A ``list`` is read whole, up front,
        by :func:`admit_records`; each record it leaves as ``None``, and
        each record of any other iterable, is coerced in the loop by
        :func:`coerce_record`, so every error, dead letter, count and
        auto oid is that path's.  The result holds zero or more objects
        in non-decreasing timestamp order (buffered records released by
        an advancing watermark ride along with the batch that advanced
        it), the same objects in the same order as one record at a time,
        and the same for a list as for an iterator over it.

        Under ``RAISE`` the first rejected record stops the batch: it
        is counted as rejected, the buffer is released at the watermark
        reached so far, and the objects admitted ahead of it ride on
        the :class:`~repro.errors.QuarantineError` as ``released``, so
        the conservation law holds at the raise.  An iterator is
        consumed no further than the rejected record.
        """
        out: list[SpatialObject] = []
        reorder = self.reorder
        accept = reorder.accept
        if type(records) is list:
            pairs = zip(records, admit_records(records))
        else:
            pairs = zip(records, repeat(None))
        try:
            for record, obj in pairs:
                self._seq += 1
                if obj is None:
                    try:
                        obj = coerce_record(record)
                    except _INVALID as exc:
                        self._reject(record, "invalid", str(exc))
                        continue
                kept = accept(obj, out)
                if kept:
                    self.admitted += 1
                elif kept is None:
                    self._reject(
                        obj,
                        "late",
                        f"timestamp {obj.timestamp} behind watermark "
                        f"{reorder.watermark} (max_lateness="
                        f"{reorder.max_lateness})",
                        late=True,
                    )
        except QuarantineError as exc:
            exc.released = self._release_into(out)
            raise
        return self._release_into(out)

    def flush(self) -> list[SpatialObject]:
        """Release everything the reorder buffer still holds, in order."""
        released = self.reorder.flush()
        self.admitted += len(released)
        return released

    def _release_into(self, out: list[SpatialObject]) -> list[SpatialObject]:
        """Append what the reorder buffer's watermark releases to ``out``."""
        if self.reorder.pending:
            released = self.reorder.release()
            self.admitted += len(released)
            out += released
        return out

    # -- rejection paths ---------------------------------------------------

    def _reject(
        self, record: object, reason: str, detail: str, late: bool = False
    ) -> None:
        if late:
            self.late_dropped += 1
        elif self.policy is ErrorPolicy.SKIP:
            self.skipped += 1
        else:
            self.quarantined += 1
        if self.policy is ErrorPolicy.RAISE:
            raise QuarantineError(f"{reason}: {detail}", record=record)
        if self.policy is ErrorPolicy.QUARANTINE:
            self.dead_letters.put(
                DeadLetter(
                    record=record, reason=reason, detail=detail, seq=self._seq
                )
            )
