"""Differential test of ``IngestGuard.filter``'s one-pass batch loop.

The batch loop coerces each record once (plain dicts through a
positional branch), appends in-order records straight to the output
and releases the reorder buffer once, at the batch's final watermark.
The reference below is the loop it replaced: one ``admit`` per record,
the general ``Mapping`` path for every mapping, and a reorder buffer
released after every record.  Fed the same dirty batches, split at the
same points, both must release the same objects in the same order and
leave the same counters, dead letters, pending depth and watermark —
under all three error policies, including right after a ``RAISE``.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections.abc import Mapping, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import objects as objects_module
from repro.core.objects import SpatialObject
from repro.errors import QuarantineError, ReproError
from repro.resilience import ErrorPolicy, IngestGuard, ReorderBuffer

_FIELD_NAMES = ("x", "y", "weight", "timestamp", "oid")


def _reference_oid(value):
    oid = int(value)
    if oid != value and not isinstance(value, (str, bytes)):
        raise ValueError(f"record oid must be integral, got {value!r}")
    return oid


def reference_coerce(record):
    """``coerce_record`` without the plain-dict branch."""
    if isinstance(record, SpatialObject):
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
            kwargs["oid"] = _reference_oid(kwargs["oid"])
        return SpatialObject(**kwargs)
    if isinstance(record, Sequence) and not isinstance(record, (str, bytes)):
        if not 2 <= len(record) <= 5:
            raise ValueError(
                f"record sequence must have 2-5 fields, got {record!r}"
            )
        values = [float(v) for v in record[:4]]
        if len(record) == 5:
            return SpatialObject(*values, _reference_oid(record[4]))
        return SpatialObject(*values)
    raise TypeError(f"cannot interpret stream record {record!r}")


class PerRecordBuffer(ReorderBuffer):
    """Releases after every record, at that record's watermark."""

    def offer(self, obj):
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


class PerRecordGuard(IngestGuard):
    """The admission loop before batching: one ``admit`` per record."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.reorder = PerRecordBuffer(self.reorder.max_lateness)

    def admit(self, record):
        self._seq += 1
        try:
            obj = reference_coerce(record)
        except (ReproError, ValueError, TypeError, OverflowError) as exc:
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

    def filter(self, records):
        out = []
        try:
            for record in records:
                out.extend(self.admit(record))
        except QuarantineError as exc:
            exc.released = out
            raise
        return out


class FirstWatermarkBuffer(ReorderBuffer):
    """Mutant: releases a batch at its first record's watermark."""

    _first = None

    def accept(self, obj, out):
        kept = super().accept(obj, out)
        if self._first is None:
            self._first = self.watermark
        return kept

    def release(self):
        frontier, self._first = self._first, None
        return self._release(self.watermark if frontier is None else frontier)


class Payload(dict):
    """A dict subclass: takes the general Mapping path."""


def _fields(objs):
    return [
        (o.x.hex(), o.y.hex(), o.weight.hex(), o.timestamp.hex(), o.oid)
        for o in objs
    ]


def _state(guard):
    return (
        guard.offered,
        guard.admitted,
        guard.quarantined,
        guard.skipped,
        guard.late_dropped,
        guard.late_reordered,
        guard.reorder.pending,
        guard.reorder.watermark.hex(),
        [(d.reason, d.detail, d.seq) for d in guard.dead_letters],
    )


def _run(call, auto_start):
    """``call()``'s released fields, with auto oids drawn from
    ``auto_start`` on; a ``QuarantineError`` yields its message and
    the objects it carries."""
    saved = objects_module._AUTO_ID
    objects_module._AUTO_ID = itertools.count(auto_start)
    try:
        return "ok", _fields(call())
    except QuarantineError as exc:
        return str(exc), _fields(exc.released)
    finally:
        objects_module._AUTO_ID = saved


def check_same(guard, ref, batches, one_at_a_time=False):
    """Assert ``guard`` and ``ref`` agree after every batch and flush;
    ``one_at_a_time`` filters one record per call."""
    for i, batch in enumerate(batches):
        auto_start = 10**15 + 1000 * i
        if one_at_a_time:
            got = [_run(lambda r=r: guard.filter([r]), auto_start) for r in batch]
            want = [_run(lambda r=r: ref.filter([r]), auto_start) for r in batch]
        else:
            got = _run(lambda: guard.filter(batch), auto_start)
            want = _run(lambda: ref.filter(batch), auto_start)
        assert got == want
        assert _state(guard) == _state(ref)
        assert guard.offered == (
            guard.admitted + guard.rejected + guard.reorder.pending
        )
    assert _fields(guard.flush()) == _fields(ref.flush())
    assert _state(guard) == _state(ref)


def _forged(x, y, weight, timestamp):
    obj = object.__new__(SpatialObject)
    for name, value in zip(_FIELD_NAMES, (x, y, weight, timestamp, 7)):
        object.__setattr__(obj, name, value)
    return obj


# small integer timestamps make ties and exact-watermark hits common;
# -0.0 ties with 0.0 but would show in a watermark kept with the wrong
# sign
stamps = st.one_of(
    st.integers(0, 12).map(float),
    st.floats(0.0, 12.0),
    st.sampled_from([0.0, -0.0]),
)
coords = st.floats(-50.0, 50.0)
dirty = st.one_of(
    st.sampled_from(
        [float("nan"), float("inf"), -float("inf"), -1.0, -0.0, 10**400]
    ),
    st.sampled_from(["1.5", "abc", "", None, b"2"]),
    st.integers(-3, 3),
)
oids = st.one_of(
    st.integers(-5, 2**64),
    st.sampled_from([3.0, 3.7, -0.0, float("nan"), float("inf"), "5", "x"]),
)
value_for = {
    "x": st.one_of(coords, dirty),
    "y": st.one_of(coords, dirty),
    "weight": st.one_of(st.floats(0.0, 9.0), dirty),
    "timestamp": st.one_of(stamps, dirty),
    "oid": oids,
}


@st.composite
def mappings(draw):
    keys = draw(
        st.lists(
            st.sampled_from(_FIELD_NAMES + ("extra",)),
            unique=True,
            max_size=6,
        )
    )
    # mostly valid records, so the reorder buffer sees real traffic
    if draw(st.integers(0, 3)):
        keys = ["x", "y", *keys]
        record = {"x": draw(coords), "y": draw(coords)}
        record["timestamp"] = draw(stamps)
    else:
        record = {}
    for key in keys:
        if key == "extra":
            record[key] = draw(st.one_of(st.none(), st.text(max_size=3)))
        elif key not in record or not draw(st.integers(0, 3)):
            record[key] = draw(value_for[key])
    if draw(st.integers(0, 5)) == 0:
        return Payload(record)
    return record


records = st.one_of(
    mappings(),
    mappings(),
    mappings(),
    st.lists(st.one_of(coords, stamps, dirty, oids), min_size=1, max_size=6)
    .map(tuple),
    st.builds(
        lambda x, y, t: (x, y, 1.0, t), coords, coords, stamps
    ),
    st.text(max_size=4),
    st.builds(
        lambda x, y, w, t: SpatialObject(x, y, w, t), coords, coords,
        st.floats(0.0, 9.0), stamps,
    ),
    st.builds(
        _forged,
        st.sampled_from([1.0, float("inf")]),
        coords,
        st.sampled_from([1.0, -2.0]),
        st.sampled_from([1.0, float("nan")]),
    ),
)


@st.composite
def split_batches(draw):
    items = draw(st.lists(records, max_size=40))
    cuts = sorted(draw(st.lists(st.integers(0, len(items)), max_size=5)))
    bounds = [0, *cuts, len(items)]
    return [items[a:b] for a, b in zip(bounds, bounds[1:])]


policies = st.sampled_from(list(ErrorPolicy))
lateness = st.sampled_from([0.0, 0.5, 16.0])


@settings(max_examples=400, deadline=None)
@given(split_batches(), policies, lateness)
def test_batch_filter_matches_per_record_admission(batches, policy, late):
    check_same(
        IngestGuard(policy=policy, max_lateness=late),
        PerRecordGuard(policy=policy, max_lateness=late),
        batches,
    )


@settings(max_examples=100, deadline=None)
@given(split_batches(), policies, lateness)
def test_single_record_filters_match_per_record_admission(
    batches, policy, late
):
    check_same(
        IngestGuard(policy=policy, max_lateness=late),
        PerRecordGuard(policy=policy, max_lateness=late),
        batches,
        one_at_a_time=True,
    )


def test_mutant_released_at_first_watermark_is_caught():
    mutant = IngestGuard(max_lateness=0.5)
    mutant.reorder = FirstWatermarkBuffer(0.5)
    batch = [{"x": 1.0, "y": 1.0, "timestamp": float(t)} for t in range(4)]
    with pytest.raises(AssertionError):
        check_same(mutant, PerRecordGuard(max_lateness=0.5), [batch])
    # the unmutated guard passes the same check
    check_same(
        IngestGuard(max_lateness=0.5), PerRecordGuard(max_lateness=0.5),
        [batch],
    )
