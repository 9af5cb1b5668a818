"""BackpressureQueue: bounded depth, shed policies, conservation ledger."""

from __future__ import annotations

import random

import pytest

from conftest import make_objects
from repro.errors import InvalidParameterError
from repro.overload import BackpressureQueue, ShedPolicy


class TestShedPolicy:
    def test_coerce_strings(self):
        assert ShedPolicy.coerce("block") is ShedPolicy.BLOCK
        assert ShedPolicy.coerce("SHED_OLDEST") is ShedPolicy.SHED_OLDEST
        assert ShedPolicy.coerce("shed-oldest") is ShedPolicy.SHED_OLDEST
        assert ShedPolicy.coerce(ShedPolicy.BLOCK) is ShedPolicy.BLOCK

    def test_coerce_unknown_rejected(self):
        with pytest.raises(InvalidParameterError):
            ShedPolicy.coerce("drop_everything")


class TestConstruction:
    def test_capacity_validated(self):
        with pytest.raises(InvalidParameterError):
            BackpressureQueue(0)
        with pytest.raises(InvalidParameterError):
            BackpressureQueue(-5)

    def test_max_batch_validated(self):
        with pytest.raises(InvalidParameterError):
            BackpressureQueue(10, max_batch=0)


class TestOfferAndTake:
    def test_fifo_order_preserved(self):
        queue = BackpressureQueue(10)
        objects = make_objects(6)
        assert queue.offer_all(objects) == []
        assert queue.take_batch() == objects

    def test_take_batch_respects_limit(self):
        queue = BackpressureQueue(10, max_batch=4)
        objects = make_objects(10)
        queue.offer_all(objects)
        first = queue.take_batch()
        assert first == objects[:4]
        assert queue.take_batch(2) == objects[4:6]
        assert queue.take_batch() == objects[6:10]
        assert queue.pending == 0

    def test_take_batch_limit_validated(self):
        queue = BackpressureQueue(10)
        with pytest.raises(InvalidParameterError):
            queue.take_batch(0)

    def test_drain_yields_until_empty(self):
        queue = BackpressureQueue(20)
        queue.offer_all(make_objects(10))
        batches = list(queue.drain(3))
        assert [len(b) for b in batches] == [3, 3, 3, 1]
        assert queue.pending == 0

    def test_high_water_tracks_deepest_point(self):
        queue = BackpressureQueue(100)
        queue.offer_all(make_objects(7))
        queue.take_batch(5)
        queue.offer_all(make_objects(2, seed=1))
        assert queue.high_water == 7


class TestBlockPolicy:
    def test_refuses_when_full(self):
        queue = BackpressureQueue(3, policy=ShedPolicy.BLOCK)
        objects = make_objects(5)
        refused = queue.offer_all(objects)
        assert refused == objects[3:]
        assert queue.pending == 3
        assert queue.refused == 2
        assert queue.ledger_closed

    def test_refused_can_reenter_after_drain(self):
        queue = BackpressureQueue(3, policy="block")
        objects = make_objects(5)
        refused = queue.offer_all(objects)
        queue.take_batch()
        assert queue.offer_all(refused) == []
        assert queue.take_batch() == objects[3:]
        assert queue.ledger_closed


class TestSheddingPolicies:
    def test_shed_oldest_keeps_freshest(self):
        queue = BackpressureQueue(3, policy=ShedPolicy.SHED_OLDEST)
        objects = make_objects(5)
        assert queue.offer_all(objects) == []  # shedding never refuses
        assert queue.take_batch() == objects[2:]  # oldest two gave way
        assert queue.shed == 2
        assert queue.ledger_closed

    def test_depth_never_exceeds_capacity(self):
        for policy in ShedPolicy:
            queue = BackpressureQueue(4, policy=policy)
            queue.offer_all(make_objects(25))
            assert queue.pending <= 4
            assert queue.high_water <= 4


class TestLedger:
    @pytest.mark.parametrize("policy", list(ShedPolicy))
    def test_ledger_closes_under_random_workload(self, policy):
        rng = random.Random(7)
        queue = BackpressureQueue(8, policy=policy, max_batch=5)
        offered_back: list = []
        for step in range(60):
            arrivals = make_objects(rng.randrange(0, 7), seed=step)
            offered_back = queue.offer_all(offered_back + arrivals)
            if rng.random() < 0.7:
                queue.take_batch()
            assert queue.ledger_closed
        ledger = queue.ledger
        assert ledger["offered"] == queue.offered
        assert ledger["pending"] == queue.pending

    def test_ledger_is_plain_data(self):
        queue = BackpressureQueue(4)
        queue.offer_all(make_objects(6))
        queue.take_batch(2)
        ledger = queue.ledger
        assert ledger == {
            "offered": 6,
            "processed": 2,
            "shed": 2,
            "refused": 0,
            "spilled": 0,
            "pending": 2,
            "high_water": 4,
        }


class TestMetrics:
    def test_counters_and_gauges_emitted(self):
        """The ledger attributes are the queue's counts."""
        queue = BackpressureQueue(3, max_batch=2)
        queue.offer_all(make_objects(5))
        assert len(queue.take_batch()) == 2
        assert queue.shed == 2
        assert queue.processed == 2
        assert queue.pending == 1


class OneAtATimeQueue(BackpressureQueue):
    """``offer_all`` as one ``offer`` per object, in order."""

    def offer_all(self, objects):
        return [obj for obj in objects if not self.offer(obj)]


class TestOfferAllMatchesPerObjectOffer:
    """The batch ``offer_all`` leaves the ledger, the refused list and
    the deque exactly as one ``offer`` per object would."""

    CAPACITY = 8

    def _pair(self, policy, depth, spilled_back=0):
        queued = make_objects(depth, seed=3)
        restored = make_objects(spilled_back, seed=4)
        queues = []
        for cls in (BackpressureQueue, OneAtATimeQueue):
            queue = cls(self.CAPACITY, policy=policy)
            if spilled_back:
                for obj in restored:
                    queue.offer(obj)
                queue.spill()
            for obj in queued:
                queue.offer(obj)
            # a restored spill can leave the queue above capacity
            queue.restore_spilled(restored)
            queues.append(queue)
        return queues

    @staticmethod
    def _same(batch_queue, ref_queue, got, want):
        assert [id(o) for o in got] == [id(o) for o in want]
        assert batch_queue.ledger == ref_queue.ledger
        assert [id(o) for o in batch_queue._items] == [
            id(o) for o in ref_queue._items
        ]

    @pytest.mark.parametrize("policy", ["block", "shed_oldest"])
    @pytest.mark.parametrize(
        "depth,count",
        [
            (0, 0),  # empty queue, empty batch
            (0, 5),  # empty queue
            (0, 8),  # exactly full
            (3, 5),  # exactly full from a partial queue
            (0, 9),  # overflow by one
            (8, 1),  # full queue, one more
            (0, 20),  # batch larger than capacity
            (5, 20),  # batch larger than capacity, partial queue
            (8, 20),  # batch larger than capacity, full queue
        ],
    )
    def test_differential(self, policy, depth, count):
        batch_queue, ref_queue = self._pair(policy, depth)
        objects = make_objects(count, seed=9)
        got = batch_queue.offer_all(objects)
        want = ref_queue.offer_all(objects)
        self._same(batch_queue, ref_queue, got, want)

    @pytest.mark.parametrize("policy", ["block", "shed_oldest"])
    @pytest.mark.parametrize("count", [1, 5, 11, 30])
    def test_differential_above_capacity(self, policy, count):
        batch_queue, ref_queue = self._pair(policy, 5, spilled_back=8)
        assert batch_queue.pending == 13
        objects = make_objects(count, seed=9)
        got = batch_queue.offer_all(iter(objects))
        want = ref_queue.offer_all(iter(objects))
        self._same(batch_queue, ref_queue, got, want)

    @pytest.mark.parametrize("policy", ["block", "shed_oldest"])
    def test_differential_random_rounds(self, policy):
        rng = random.Random(17)
        batch_queue, ref_queue = self._pair(policy, 0)
        for round_ in range(200):
            objects = make_objects(rng.randint(0, 20), seed=round_)
            self._same(
                batch_queue,
                ref_queue,
                batch_queue.offer_all(objects),
                ref_queue.offer_all(objects),
            )
            size = rng.randint(1, 10)
            assert batch_queue.take_batch(size) == ref_queue.take_batch(size)
