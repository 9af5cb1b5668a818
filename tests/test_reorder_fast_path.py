"""Differential test of ``ReorderBuffer.accept``'s fast path.

A record offered to an empty buffer that the new watermark already
passes is released without a heap round trip.  Against a reference
that always goes through the heap, every record taken by ``accept``
and then ``release`` must come out as the same objects (by identity,
in the same order) or the same ``None``, and leave the same
``reordered``, ``pending`` and watermark — with and without lateness,
and with timestamp ties.  Through the guard, ``late_dropped`` must
match too.
"""

from __future__ import annotations

import heapq

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.objects import SpatialObject
from repro.resilience import IngestGuard, ReorderBuffer


class HeapOnlyBuffer(ReorderBuffer):
    """Every record through the heap, as before the fast path: ``offer``
    is the one-record path, written out on its own; the guard takes
    records through ``accept``."""

    def offer(self, obj):
        if obj.timestamp < self.watermark:
            return None
        if obj.timestamp < self._max_seen:
            self.reordered += 1
        self._max_seen = max(self._max_seen, obj.timestamp)
        heapq.heappush(self._heap, (obj.timestamp, next(self._seq), obj))
        return self._release(self.watermark)

    def accept(self, obj, out):
        if obj.timestamp < self.watermark:
            return None
        if obj.timestamp < self._max_seen:
            self.reordered += 1
        self._max_seen = max(self._max_seen, obj.timestamp)
        heapq.heappush(self._heap, (obj.timestamp, next(self._seq), obj))
        return False


def _offer(buffer, obj):
    """One record through the production buffer: ``accept``, then
    ``release``; ``None`` when it is too late."""
    out = []
    if buffer.accept(obj, out) is None:
        return None
    return out + buffer.release()


# small integer timestamps make ties and exact-watermark hits common;
# -0.0 ties with 0.0 but would show in a watermark kept with the
# wrong sign
timestamps = st.lists(
    st.one_of(
        st.integers(0, 12).map(float),
        st.floats(0.0, 12.0),
        st.just(-0.0),
    ),
    max_size=60,
)
lateness = st.sampled_from([0.0, 0.5, 1.0, 3.0, 16.0])


def _objects(stamps):
    return [
        SpatialObject(x=1.0, y=1.0, timestamp=t, oid=i)
        for i, t in enumerate(stamps)
    ]


@settings(max_examples=300, deadline=None)
@given(timestamps, lateness, st.booleans())
def test_offer_matches_the_heap_path(stamps, max_lateness, in_order):
    if in_order:
        stamps = sorted(stamps)
    fast = ReorderBuffer(max_lateness)
    ref = HeapOnlyBuffer(max_lateness)
    for obj in _objects(stamps):
        got, want = _offer(fast, obj), ref.offer(obj)
        if want is None:
            assert got is None
        else:
            assert [id(o) for o in got] == [id(o) for o in want]
        assert fast.reordered == ref.reordered
        assert fast.pending == ref.pending
        assert fast.watermark.hex() == ref.watermark.hex()
    assert fast.flush() == ref.flush()


@settings(max_examples=150, deadline=None)
@given(timestamps, lateness)
def test_guard_counts_match_the_heap_path(stamps, max_lateness):
    fast = IngestGuard(max_lateness=max_lateness)
    ref = IngestGuard(max_lateness=max_lateness)
    ref.reorder = HeapOnlyBuffer(max_lateness)
    records = [
        {"x": 1.0, "y": 1.0, "timestamp": t, "oid": i}
        for i, t in enumerate(stamps)
    ]
    for start in range(0, len(records), 7):
        chunk = records[start:start + 7]
        assert fast.filter(chunk) == ref.filter(chunk)
    assert fast.late_dropped == ref.late_dropped
    assert fast.late_reordered == ref.late_reordered
    assert fast.admitted == ref.admitted
    assert fast.flush() == ref.flush()


def test_in_order_records_skip_the_heap_without_lateness():
    buffer = ReorderBuffer(0.0)
    seqs = []
    for obj in _objects([1.0, 1.0, 2.0, 5.0]):
        out = []
        assert buffer.accept(obj, out) is True
        assert out == [obj]
        seqs.append(next(buffer._seq))
    # nothing but this probe drew a tiebreak number: no heap push ran
    assert seqs == [0, 1, 2, 3]
    assert buffer.accept(_objects([4.0])[0], []) is None
