"""The input contract of ``IngestGuard.filter``'s batch pass.

Handed a ``list``, the guard builds the objects of the wire records in
one compiled pass before its loop; any other iterable is read lazily,
one record per loop step.  Both must admit alike: the same records,
given as a list and as an iterator, release the same objects and leave
the same counters, dead letters and ``QuarantineError.released`` under
every error policy, and under ``RAISE`` an iterator is consumed no
further than the rejected record.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.errors import QuarantineError
from repro.resilience import ErrorPolicy, IngestGuard
from test_guard_batch import _run, _state, lateness, policies, split_batches


def _wire(t: float, oid: int, **changes) -> dict:
    record = {"x": 1.0, "y": 2.0, "weight": 1.0, "timestamp": t, "oid": oid}
    record.update(changes)
    return record


class _Counted:
    """A one-shot iterator over ``records`` that counts what it hands
    out."""

    def __init__(self, records):
        self._it = iter(records)
        self.taken = 0

    def __iter__(self):
        return self

    def __next__(self):
        record = next(self._it)
        self.taken += 1
        return record


def test_raise_consumes_an_iterator_up_to_the_rejected_record():
    records = [_wire(0.0, 0), _wire(1.0, 1), _wire(2.0, 2, weight=-1.0),
               _wire(3.0, 3), _wire(4.0, 4)]
    source = _Counted(records)
    guard = IngestGuard(policy=ErrorPolicy.RAISE)
    with pytest.raises(QuarantineError) as raised:
        guard.filter(source)
    assert source.taken == 3
    assert [o.oid for o in raised.value.released] == [0, 1]
    assert raised.value.record is records[2]
    # the rest of the iterator is still there, and admits on its own
    assert [o.oid for o in guard.filter(source)] == [3, 4]
    assert source.taken == 5
    assert guard.offered == guard.admitted + guard.rejected == 5


@settings(max_examples=200, deadline=None)
@given(split_batches(), policies, lateness)
def test_a_list_and_an_iterator_admit_alike(batches, policy, late):
    """Two guards, one handed each batch as a list and one as an
    iterator over it, agree after every batch and after the flush."""
    listed = IngestGuard(policy=policy, max_lateness=late)
    streamed = IngestGuard(policy=policy, max_lateness=late)
    for i, batch in enumerate(batches):
        auto_start = 10**15 + 1000 * i
        got = _run(lambda: listed.filter(list(batch)), auto_start)
        want = _run(lambda: streamed.filter(iter(batch)), auto_start)
        assert got == want
        assert _state(listed) == _state(streamed)
    assert _run(listed.flush, 0) == _run(streamed.flush, 0)
    assert _state(listed) == _state(streamed)
