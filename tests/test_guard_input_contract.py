"""The input contract of ``IngestGuard.filter``'s batch pass.

Handed a ``list``, the guard builds the objects of the wire records in
one compiled pass before its loop; any other iterable is read lazily,
one record per loop step.  Both must admit alike: the same records,
given as a list and as an iterator, release the same objects and leave
the same counters, dead letters and ``QuarantineError.released`` under
every error policy, and under ``RAISE`` an iterator is consumed no
further than the rejected record.

Under strict order (``max_lateness`` 0) the pass also reports whether
every record was built with timestamps in order from the watermark;
such a list is released whole, without the loop.  The cases below hold
that release to the per-record loop and to an iterator over the same
records: a first timestamp equal to the watermark, a late record after
in-order ones, an invalid record, an empty list, ``RAISE``.  A kept
mutant (a pass that skips the order check) shows they catch a release
the loop would not make.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

import reference_kernel
from repro.errors import QuarantineError
from repro.resilience import ErrorPolicy, IngestGuard
from repro.resilience import guard as guard_module
from test_guard_batch import (
    PerRecordGuard,
    _run,
    _state,
    lateness,
    policies,
    split_batches,
)


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


# -- the whole-list release under strict order ---------------------------


def _admit_alike(batches, policy=ErrorPolicy.QUARANTINE, late=0.0):
    """Feed ``batches`` to a guard as lists, to one as iterators and to
    the per-record loop; after each batch and the flush all three
    release the same objects (or raise alike) and hold the same
    counters, dead letters and watermark, and the conservation law
    holds.  Returns what the listed guard released, batch by batch."""
    guards = [IngestGuard(policy=policy, max_lateness=late),
              IngestGuard(policy=policy, max_lateness=late),
              PerRecordGuard(policy=policy, max_lateness=late)]
    feeds = [list, iter, list]
    released = []
    for i, batch in enumerate(batches):
        auto_start = 10**15 + 1000 * i
        got = [_run(lambda g=g, f=f: g.filter(f(batch)), auto_start)
               for g, f in zip(guards, feeds)]
        assert got[0] == got[1] == got[2]
        states = [_state(g) for g in guards]
        assert states[0] == states[1] == states[2]
        listed = guards[0]
        assert listed.offered == (
            listed.admitted + listed.rejected + listed.reorder.pending
        )
        released.append(got[0])
    flushed = [_run(g.flush, 0) for g in guards]
    assert flushed[0] == flushed[1] == flushed[2]
    return released


def _batch(*stamps, **changes):
    """Wire records at ``stamps``, oids from 100 on."""
    return [_wire(t, 100 + k, **changes) for k, t in enumerate(stamps)]


#: name -> batches; each case under QUARANTINE, SKIP and RAISE
ORDER_CASES = {
    "in_order": [_batch(1.0, 2.0, 2.0, 3.0), _batch(4.0, 5.0)],
    "first_equal_to_watermark": [_batch(1.0, 3.0), _batch(3.0, 3.0, 4.0)],
    "signed_zero_at_watermark": [_batch(-0.0), _batch(0.0, -0.0, 0.0)],
    "late_after_in_order": [_batch(1.0, 2.0), _batch(3.0, 4.0, 2.5, 5.0)],
    "late_first": [_batch(5.0), _batch(4.0, 6.0)],
    "one_invalid": [
        _batch(1.0),
        [_wire(2.0, 1), _wire(3.0, 2, weight=-1.0), _wire(4.0, 3)],
    ],
    "empty": [[], _batch(1.0), [], _batch(2.0)],
    "from_minus_infinity": [_batch(float("-inf"), float("-inf"), 0.0)],
}


@pytest.mark.parametrize("policy", list(ErrorPolicy), ids=lambda p: p.name)
@pytest.mark.parametrize("case", ORDER_CASES)
def test_the_whole_list_release_matches_the_loop(case, policy):
    _admit_alike(ORDER_CASES[case], policy)


def _spied(guard: IngestGuard) -> list:
    """The oids the guard's reorder buffer takes one at a time."""
    taken = []
    accept = guard.reorder.accept

    def spy(obj, out):
        taken.append(obj.oid)
        return accept(obj, out)

    guard.reorder.accept = spy
    return taken


def test_an_in_order_list_skips_the_loop():
    """Every record built and in order from the watermark: the reorder
    buffer takes no record one at a time; any other list, or any list
    under a lateness bound, goes through the loop."""
    guard = IngestGuard()
    taken = _spied(guard)
    assert [o.oid for o in guard.filter(_batch(1.0, 1.0, 2.0))] == [
        100, 101, 102]
    assert [o.oid for o in guard.filter(_batch(2.0, 3.0))] == [100, 101]
    assert taken == []
    assert guard.reorder.watermark == 3.0 and guard.admitted == 5
    guard.filter(_batch(4.0, 3.5))
    assert taken == [100, 101]
    held = IngestGuard(max_lateness=0.5)
    taken = _spied(held)
    held.filter(_batch(1.0))
    assert taken == [100]


def _unordered_admit(records, floor):
    """Mutant pass: reports a list whose records were all built as in
    order, at its largest timestamp, without checking the order."""
    built, _ = reference_kernel.admit_records(records, floor)
    if floor is None or any(obj is None for obj in built):
        return built, None
    return built, max([floor, *(obj.timestamp for obj in built)])


@pytest.mark.parametrize("mutant", [False, True], ids=["kernel", "unordered"])
def test_a_release_without_the_order_check_is_caught(mutant, monkeypatch):
    if mutant:
        monkeypatch.setattr(guard_module, "admit_records", _unordered_admit)
        with pytest.raises(AssertionError):
            _admit_alike(ORDER_CASES["late_after_in_order"])
    else:
        _admit_alike(ORDER_CASES["late_after_in_order"])
