"""Unit and property tests for the max-cover segment tree."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.segment_tree import MaxCoverSegmentTree
from repro.errors import InvalidParameterError


class TestBasics:
    def test_initial_state_is_zero(self):
        tree = MaxCoverSegmentTree(8)
        assert tree.max_value == 0.0
        assert tree.argmax == 0
        assert tree.to_list() == [0.0] * 8

    def test_size_one(self):
        tree = MaxCoverSegmentTree(1)
        tree.add(0, 0, 3.5)
        assert tree.max_value == 3.5
        assert tree.argmax == 0

    def test_invalid_size(self):
        with pytest.raises(InvalidParameterError):
            MaxCoverSegmentTree(0)
        with pytest.raises(InvalidParameterError):
            MaxCoverSegmentTree(-3)

    def test_single_range_add(self):
        tree = MaxCoverSegmentTree(6)
        tree.add(1, 3, 2.0)
        assert tree.to_list() == [0, 2, 2, 2, 0, 0]
        assert tree.max_value == 2.0
        assert tree.argmax == 1  # leftmost slot of the max run

    def test_overlapping_adds_stack(self):
        tree = MaxCoverSegmentTree(6)
        tree.add(0, 3, 1.0)
        tree.add(2, 5, 1.0)
        assert tree.to_list() == [1, 1, 2, 2, 1, 1]
        assert tree.max_value == 2.0
        assert tree.argmax == 2

    def test_remove_restores(self):
        tree = MaxCoverSegmentTree(5)
        tree.add(0, 4, 3.0)
        tree.add(1, 2, 2.0)
        tree.add(1, 2, -2.0)
        assert tree.to_list() == [3, 3, 3, 3, 3]
        assert tree.max_value == 3.0

    def test_argmax_leftmost_tie(self):
        tree = MaxCoverSegmentTree(7)
        tree.add(4, 5, 1.0)
        tree.add(1, 2, 1.0)
        assert tree.argmax == 1

    def test_full_range_add(self):
        tree = MaxCoverSegmentTree(10)
        tree.add(0, 9, 5.0)
        assert tree.max_value == 5.0
        assert tree.argmax == 0

    def test_out_of_bounds_rejected(self):
        tree = MaxCoverSegmentTree(4)
        with pytest.raises(InvalidParameterError):
            tree.add(-1, 2, 1.0)
        with pytest.raises(InvalidParameterError):
            tree.add(0, 4, 1.0)
        with pytest.raises(InvalidParameterError):
            tree.add(3, 2, 1.0)

    def test_range_max_query(self):
        tree = MaxCoverSegmentTree(8)
        tree.add(0, 2, 4.0)
        tree.add(5, 7, 6.0)
        value, slot = tree.range_max(0, 3)
        assert value == 4.0 and slot == 0
        value, slot = tree.range_max(3, 7)
        assert value == 6.0 and slot == 5
        value, slot = tree.range_max(3, 4)
        assert value == 0.0

    def test_range_max_bounds_checked(self):
        tree = MaxCoverSegmentTree(4)
        with pytest.raises(InvalidParameterError):
            tree.range_max(0, 9)

    def test_negative_weights_supported(self):
        tree = MaxCoverSegmentTree(4)
        tree.add(0, 3, -2.0)
        tree.add(1, 1, 5.0)
        assert tree.max_value == 3.0
        assert tree.argmax == 1


class _NaiveArray:
    """Reference implementation: plain array with linear scans."""

    def __init__(self, size: int) -> None:
        self.values = [0.0] * size

    def add(self, lo: int, hi: int, delta: float) -> None:
        for i in range(lo, hi + 1):
            self.values[i] += delta

    def range_max(self, lo: int, hi: int) -> tuple[float, int]:
        best, arg = float("-inf"), lo
        for i in range(lo, hi + 1):
            if self.values[i] > best:
                best, arg = self.values[i], i
        return best, arg


@settings(max_examples=60, deadline=None)
@given(
    size=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=10_000),
    ops=st.integers(min_value=1, max_value=80),
)
def test_matches_naive_reference(size: int, seed: int, ops: int):
    """Random interleavings of adds and queries agree with a plain array."""
    rng = random.Random(seed)
    tree = MaxCoverSegmentTree(size)
    ref = _NaiveArray(size)
    for _ in range(ops):
        lo = rng.randrange(size)
        hi = rng.randrange(lo, size)
        delta = rng.choice([-3.0, -1.0, 0.5, 1.0, 2.5])
        tree.add(lo, hi, delta)
        ref.add(lo, hi, delta)
        qlo = rng.randrange(size)
        qhi = rng.randrange(qlo, size)
        tval, targ = tree.range_max(qlo, qhi)
        rval, rarg = ref.range_max(qlo, qhi)
        assert tval == pytest.approx(rval)
        assert ref.values[targ] == pytest.approx(rval)
        assert tree.max_value == pytest.approx(max(ref.values))
        assert ref.values[tree.argmax] == pytest.approx(max(ref.values))


@settings(max_examples=30, deadline=None)
@given(
    size=st.integers(min_value=2, max_value=30),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_insert_then_remove_cancels(size: int, seed: int):
    """Adding then subtracting the same intervals returns to all-zero."""
    rng = random.Random(seed)
    tree = MaxCoverSegmentTree(size)
    intervals = []
    for _ in range(10):
        lo = rng.randrange(size)
        hi = rng.randrange(lo, size)
        w = rng.uniform(0.5, 5.0)
        intervals.append((lo, hi, w))
        tree.add(lo, hi, w)
    for lo, hi, w in intervals:
        tree.add(lo, hi, -w)
    assert tree.max_value == pytest.approx(0.0, abs=1e-9)
    assert all(abs(v) < 1e-9 for v in tree.to_list())


class TestReset:
    def test_reset_clears_state(self):
        tree = MaxCoverSegmentTree(8)
        tree.add(2, 6, 4.0)
        tree.reset(8)
        assert tree.max_value == 0.0
        assert tree.argmax == 0
        assert tree.to_list() == [0.0] * 8

    def test_reset_shrink_reuses_arrays(self):
        tree = MaxCoverSegmentTree(32)
        tree.add(0, 31, 1.0)
        backing = tree._mx
        tree.reset(5)
        assert tree._mx is backing  # no reallocation on shrink
        assert tree.size == 5
        assert tree.to_list() == [0.0] * 5
        tree.add(1, 3, 2.0)
        assert (tree.max_value, tree.argmax) == (2.0, 1)

    def test_reset_grow_reallocates(self):
        tree = MaxCoverSegmentTree(4)
        tree.reset(64)
        assert tree.size == 64
        tree.add(60, 63, 7.0)
        assert (tree.max_value, tree.argmax) == (7.0, 60)

    def test_reset_invalid_size(self):
        tree = MaxCoverSegmentTree(4)
        with pytest.raises(InvalidParameterError):
            tree.reset(0)

    def test_stale_state_cannot_leak_after_shrink(self):
        tree = MaxCoverSegmentTree(16)
        tree.add(10, 15, 100.0)  # only slots outside the shrunken range
        tree.reset(3)
        assert tree.max_value == 0.0
        tree.add(0, 0, 1.0)
        assert (tree.max_value, tree.argmax) == (1.0, 0)


@settings(max_examples=40, deadline=None)
@given(
    sizes=st.lists(
        st.integers(min_value=1, max_value=25), min_size=2, max_size=5
    ),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_reset_reuse_matches_fresh_tree(sizes: list[int], seed: int):
    """One pooled tree driven through reset() phases behaves exactly
    like a freshly constructed tree of each phase's size."""
    rng = random.Random(seed)
    pooled = MaxCoverSegmentTree(sizes[0])
    for phase, size in enumerate(sizes):
        if phase:
            pooled.reset(size)
        fresh = MaxCoverSegmentTree(size)
        ref = _NaiveArray(size)
        for _ in range(rng.randrange(1, 12)):
            lo = rng.randrange(size)
            hi = rng.randrange(lo, size)
            delta = rng.choice([-2.0, -0.5, 1.0, 3.0])
            for t in (pooled, fresh):
                t.add(lo, hi, delta)
            ref.add(lo, hi, delta)
        # pooled and fresh saw identical op sequences: results must be
        # bit-identical, not merely approximately equal
        assert pooled.peek() == fresh.peek()
        assert pooled.to_list() == fresh.to_list()
        qlo = rng.randrange(size)
        qhi = rng.randrange(qlo, size)
        assert pooled.range_max(qlo, qhi) == fresh.range_max(qlo, qhi)
        rval, _rarg = ref.range_max(qlo, qhi)
        assert pooled.range_max(qlo, qhi)[0] == pytest.approx(rval)
        assert pooled.max_value == pytest.approx(max(ref.values))

