"""Ingest boundary tests: policies, dead-letter queue, reorder buffer.

The guard's contract: whatever garbage arrives, what comes out is a
sequence of valid objects in non-decreasing timestamp order, and every
record that went in is accounted for (admitted, rejected, or pending).
"""

from __future__ import annotations

import pytest

from conftest import make_objects
from repro.core.ag2 import AG2Monitor
from repro.core.objects import SpatialObject
from repro.engine import MultiQueryGroup, StreamEngine
from repro.errors import InvalidParameterError, QuarantineError
from repro.obs import Metrics
from repro.resilience import (
    DeadLetterQueue,
    ErrorPolicy,
    FaultInjectingSource,
    IngestGuard,
    ReorderBuffer,
    coerce_record,
)
from repro.streams import ReplayStream
from repro.window import CountWindow, TimeWindow


def obj(ts: float, x: float = 5.0, w: float = 1.0) -> SpatialObject:
    return SpatialObject(x=x, y=5.0, weight=w, timestamp=ts)


class TestErrorPolicy:
    def test_parse_strings(self):
        assert ErrorPolicy.parse("quarantine") is ErrorPolicy.QUARANTINE
        assert ErrorPolicy.parse("RAISE") is ErrorPolicy.RAISE
        assert ErrorPolicy.parse(ErrorPolicy.SKIP) is ErrorPolicy.SKIP

    def test_parse_unknown_rejected(self):
        with pytest.raises(InvalidParameterError):
            ErrorPolicy.parse("explode")


class TestCoerceRecord:
    def test_passthrough_valid_object(self):
        o = obj(1.0)
        assert coerce_record(o) is o

    def test_mapping_and_sequence_payloads(self):
        from_map = coerce_record({"x": 1, "y": 2, "weight": 3, "timestamp": 4})
        assert (from_map.x, from_map.y) == (1.0, 2.0)
        from_seq = coerce_record((1, 2, 3, 4))
        assert from_seq.weight == 3.0 and from_seq.timestamp == 4.0

    @pytest.mark.parametrize(
        "payload",
        [
            {"x": float("nan"), "y": 0.0},
            {"x": 0.0, "y": 0.0, "weight": -1.0},
            {"weight": 1.0},  # missing x/y
            (1.0, float("inf")),
            (1.0, 2.0, "garbage"),
            "not a record",
            object(),
        ],
    )
    def test_bad_payloads_raise(self, payload):
        with pytest.raises((InvalidParameterError, ValueError, TypeError)):
            coerce_record(payload)


class TestDeadLetterQueue:
    def test_bounded_with_eviction_accounting(self):
        from repro.resilience import DeadLetter

        q = DeadLetterQueue(capacity=3)
        for i in range(5):
            q.put(DeadLetter(record=i, reason="invalid", detail="", seq=i))
        assert len(q) == 3
        assert q.total_enqueued == 5
        assert q.total_evicted == 2
        # retained entries are the newest ones
        assert [letter.record for letter in q] == [2, 3, 4]
        assert q.counts_by_reason() == {"invalid": 5}

    def test_drain_empties_but_keeps_totals(self):
        from repro.resilience import DeadLetter

        q = DeadLetterQueue(capacity=8)
        q.put(DeadLetter(record="r", reason="late", detail="", seq=1))
        drained = q.drain()
        assert len(drained) == 1 and len(q) == 0
        assert q.total_enqueued == 1

    def test_capacity_validated(self):
        with pytest.raises(InvalidParameterError):
            DeadLetterQueue(capacity=0)


class TestDeadLetterDrainToJsonl:
    def _letters(self, n, reason="invalid"):
        from repro.resilience import DeadLetter

        return [
            DeadLetter(record={"raw": i}, reason=reason, detail="d", seq=i)
            for i in range(n)
        ]

    def test_drain_writes_one_json_line_per_entry(self, tmp_path):
        import json

        q = DeadLetterQueue(capacity=8)
        for letter in self._letters(3):
            q.put(letter)
        path = tmp_path / "dead.jsonl"
        assert q.drain_to_jsonl(path) == 3
        assert len(q) == 0
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        docs = [json.loads(line) for line in lines]
        assert [doc["seq"] for doc in docs] == [0, 1, 2]
        assert all(doc["reason"] == "invalid" for doc in docs)
        assert docs[0]["record"] == {"raw": 0}

    def test_repeated_drains_append_across_incarnations(self, tmp_path):
        path = tmp_path / "dead.jsonl"
        first = DeadLetterQueue(capacity=8)
        for letter in self._letters(2):
            first.put(letter)
        first.drain_to_jsonl(path)
        # a fresh queue (post-restart) appends to the same audit trail
        second = DeadLetterQueue(capacity=8)
        for letter in self._letters(3, reason="late"):
            second.put(letter)
        second.drain_to_jsonl(path)
        assert len(path.read_text().splitlines()) == 5

    def test_empty_queue_touches_nothing(self, tmp_path):
        path = tmp_path / "dead.jsonl"
        assert DeadLetterQueue().drain_to_jsonl(path) == 0
        assert not path.exists()

    def test_unserialisable_record_stored_as_repr(self, tmp_path):
        import json

        from repro.resilience import DeadLetter

        q = DeadLetterQueue(capacity=8)
        q.put(DeadLetter(record=object(), reason="invalid", detail="", seq=0))
        path = tmp_path / "dead.jsonl"
        assert q.drain_to_jsonl(path) == 1
        (doc,) = [json.loads(line) for line in path.read_text().splitlines()]
        assert doc["record"].startswith("<object object")

    def test_disk_failure_is_typed_and_entries_survive(self, tmp_path):
        from repro.errors import DurableWriteError

        q = DeadLetterQueue(capacity=8)
        for letter in self._letters(2):
            q.put(letter)
        # a directory path makes open(..., "a") raise EISDIR
        with pytest.raises(DurableWriteError):
            q.drain_to_jsonl(tmp_path)
        # evidence is only dropped once it is on disk
        assert len(q) == 2

    def test_persisted_counter_in_metrics(self, tmp_path):
        q = DeadLetterQueue(capacity=8, metrics=Metrics("test"))
        for letter in self._letters(4):
            q.put(letter)
        q.drain_to_jsonl(tmp_path / "dead.jsonl")
        assert q.metrics.counter("dead_letters_persisted").value == 4


class TestReorderBuffer:
    def test_in_order_stream_flows_through(self):
        buf = ReorderBuffer(max_lateness=0.0)
        out = []
        for t in range(5):
            out.extend(buf.offer(obj(float(t))))
        assert [o.timestamp for o in out] == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert buf.reordered == 0 and buf.pending == 0

    def test_bounded_lateness_resequenced(self):
        buf = ReorderBuffer(max_lateness=5.0)
        emitted = []
        for t in [1.0, 2.0, 4.0, 3.0, 8.0, 9.0, 10.0]:
            out = buf.offer(obj(t))
            assert out is not None
            emitted.extend(out)
        emitted.extend(buf.flush())
        stamps = [o.timestamp for o in emitted]
        assert stamps == sorted(stamps)
        assert set(stamps) == {1.0, 2.0, 3.0, 4.0, 8.0, 9.0, 10.0}
        assert buf.reordered == 1

    def test_beyond_bound_is_rejected(self):
        buf = ReorderBuffer(max_lateness=1.0)
        buf.offer(obj(10.0))
        assert buf.offer(obj(8.0)) is None  # watermark is 9.0
        assert buf.offer(obj(9.5)) is not None

    def test_emitted_order_feeds_time_window(self):
        """The buffer's output satisfies TimeWindow's order contract."""
        buf = ReorderBuffer(max_lateness=4.0)
        window = TimeWindow(100.0)
        sequence = [1.0, 3.0, 2.0, 5.0, 4.0, 9.0, 7.0, 12.0, 11.0, 15.0]
        for t in sequence:
            released = buf.offer(obj(t))
            if released:
                window.push(released)  # must not raise WindowOrderError
        window.push(buf.flush())
        assert len(window) == len(sequence)

    def test_negative_lateness_rejected(self):
        with pytest.raises(InvalidParameterError):
            ReorderBuffer(max_lateness=-1.0)

    def test_equal_timestamps_released_once_in_arrival_order(self):
        """Ties share one timestamp but must come out exactly once
        each, in the order they went in (x marks arrival order)."""
        buf = ReorderBuffer(max_lateness=2.0)
        emitted = []
        for i in range(3):
            emitted.extend(buf.offer(obj(5.0, x=float(i))))
        assert emitted == []  # watermark 3.0 — all three held back
        assert buf.pending == 3
        # advancing the watermark past 5.0 releases the whole tie group
        emitted.extend(buf.offer(obj(8.0, x=99.0)))
        assert [(o.timestamp, o.x) for o in emitted] == [
            (5.0, 0.0),
            (5.0, 1.0),
            (5.0, 2.0),
        ]
        assert buf.pending == 1  # only the watermark-advancing record
        assert [(o.timestamp, o.x) for o in buf.flush()] == [(8.0, 99.0)]

    def test_ties_straddling_watermark_boundary(self):
        """A tie group arriving exactly at the watermark: members on
        both sides of the boundary are each released exactly once."""
        buf = ReorderBuffer(max_lateness=2.0)
        assert buf.offer(obj(10.0, x=0.0)) is not None  # watermark -> 8.0
        # timestamp == watermark is on time (strict < classifies late)
        first = buf.offer(obj(8.0, x=1.0))
        assert [o.x for o in first] == [1.0]
        # a second identical stamp after its twin was already released
        # must come out again (once), not be deduplicated or dropped
        second = buf.offer(obj(8.0, x=2.0))
        assert [o.x for o in second] == [2.0]
        # below the watermark the tie rule no longer applies: too late
        assert buf.offer(obj(7.9, x=3.0)) is None
        leftovers = buf.flush()
        assert [o.x for o in leftovers] == [0.0]
        total = first + second + leftovers
        assert sorted(o.x for o in total) == [0.0, 1.0, 2.0]

    def test_tie_group_split_by_late_arrival_keeps_arrival_order(self):
        """Ties buffered across separate offers interleave with an
        intervening smaller timestamp, still in timestamp-then-arrival
        order on release."""
        buf = ReorderBuffer(max_lateness=5.0)
        for ts, x in [(4.0, 0.0), (4.0, 1.0), (3.0, 2.0), (4.0, 3.0)]:
            assert buf.offer(obj(ts, x=x)) == []
        released = buf.flush()
        assert [(o.timestamp, o.x) for o in released] == [
            (3.0, 2.0),
            (4.0, 0.0),
            (4.0, 1.0),
            (4.0, 3.0),
        ]


class TestIngestGuardPolicies:
    def test_quarantine_captures_with_reason(self):
        guard = IngestGuard(policy="quarantine")
        good = guard.filter([obj(1.0), {"x": float("nan"), "y": 0.0}, obj(2.0)])
        assert [o.timestamp for o in good] == [1.0, 2.0]
        assert guard.quarantined == 1
        letters = list(guard.dead_letters)
        assert len(letters) == 1 and letters[0].reason == "invalid"

    def test_skip_drops_silently(self):
        guard = IngestGuard(policy=ErrorPolicy.SKIP)
        good = guard.filter([obj(1.0), "garbage", obj(2.0)])
        assert len(good) == 2
        assert guard.skipped == 1
        assert len(guard.dead_letters) == 0

    def test_raise_policy_fails_fast(self):
        guard = IngestGuard(policy=ErrorPolicy.RAISE)
        with pytest.raises(QuarantineError) as exc_info:
            guard.filter([obj(1.0), {"x": 0.0, "y": 0.0, "weight": -2.0}])
        assert exc_info.value.record == {"x": 0.0, "y": 0.0, "weight": -2.0}

    def test_late_records_deadlettered_as_late(self):
        guard = IngestGuard(policy="quarantine", max_lateness=1.0)
        guard.filter([obj(10.0)])
        guard.filter([obj(5.0)])  # hopelessly late
        assert guard.late_dropped == 1
        assert guard.dead_letters.counts_by_reason() == {"late": 1}

    def test_conservation_law(self):
        guard = IngestGuard(policy="quarantine", max_lateness=3.0)
        records = [obj(1.0), "bad", obj(4.0), obj(3.0), obj(2.0), obj(9.0)]
        guard.filter(records)
        assert guard.offered == len(records)
        assert guard.offered == (
            guard.admitted + guard.rejected + guard.reorder.pending
        )
        guard.flush()
        assert guard.reorder.pending == 0
        assert guard.offered == guard.admitted + guard.rejected

    def test_iterator_mode_flushes_at_end(self):
        source = [obj(1.0), obj(3.0), obj(2.0), "junk", obj(8.0)]
        guard = IngestGuard(iter(source), policy="quarantine", max_lateness=5.0)
        out = list(guard)
        stamps = [o.timestamp for o in out]
        assert stamps == [1.0, 2.0, 3.0, 8.0]
        assert guard.quarantined == 1

    def test_batch_guard_without_source_cannot_iterate(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            list(IngestGuard())

    def test_metrics_counters_emitted(self):
        metrics = Metrics()
        guard = IngestGuard(policy="quarantine", max_lateness=2.0)
        guard.attach_metrics(metrics)
        guard.filter([obj(5.0), "bad", obj(4.0), obj(0.5)])
        snap = metrics.snapshot()
        assert snap.counters["records_quarantined"] == 1
        assert snap.counters["late_reordered"] == 1
        assert snap.counters["late_dropped"] == 1
        assert snap.counters["dead_letters"] == 2  # invalid + late


class TestChaosAccounting:
    """The guard behind a seeded FaultInjectingSource, over a finite,
    fully consumed stream: every injected corrupt record is accounted
    for exactly, in the DLQ under QUARANTINE and nowhere under SKIP."""

    def test_full_stream_corrupt_accounting_is_exact(self):
        """Over a finite, fully consumed stream, every corrupt record
        must land in the DLQ: injected == quarantined."""
        objects = make_objects(500, seed=13, domain=60.0)
        chaos = FaultInjectingSource(
            ReplayStream(objects), seed=14, p_corrupt=0.1
        )
        guard = IngestGuard(chaos, policy="quarantine")
        survivors = list(guard)
        assert chaos.corrupted > 0
        assert guard.quarantined == chaos.corrupted
        assert guard.dead_letters.total_enqueued == chaos.corrupted
        assert len(survivors) == len(objects) - chaos.corrupted

    def test_skip_policy_keeps_dlq_empty(self):
        objects = make_objects(500, seed=12, domain=60.0)
        chaos = FaultInjectingSource(
            ReplayStream(objects), seed=15, p_corrupt=0.05
        )
        guard = IngestGuard(chaos, policy="skip")
        survivors = list(guard)
        assert chaos.corrupted > 0
        assert guard.skipped == chaos.corrupted
        assert guard.quarantined == 0
        assert guard.dead_letters.total_enqueued == 0
        assert len(survivors) == len(objects) - chaos.corrupted


class TestEngineAndGroupWiring:
    def test_engine_reports_ingest_scope(self):
        objects = make_objects(200, seed=5, domain=60.0)
        records: list[object] = list(objects)
        records.insert(10, {"x": float("nan"), "y": 1.0})
        guard = IngestGuard(iter(records), policy="quarantine")
        metrics = Metrics()
        engine = StreamEngine(
            {"ag2": AG2Monitor(10, 10, CountWindow(50))},
            guard,
            batch_size=20,
            metrics=metrics,
        )
        report = engine.run(10)
        assert "ingest" in report.metrics
        assert report.metrics["ingest"].counters["records_quarantined"] == 1

    def test_multi_query_group_guarded_update(self):
        group = MultiQueryGroup(guard=IngestGuard(policy="quarantine"))
        group.add("a", AG2Monitor(10, 10, CountWindow(30)))
        group.add("b", AG2Monitor(20, 20, CountWindow(30)))
        batch: list[object] = list(make_objects(10, seed=6, domain=50.0))
        batch.append((1.0, 2.0, "garbage"))
        results = group.update_guarded(batch)
        assert set(results) == {"a", "b"}
        assert group.guard.quarantined == 1
        assert all(len(m.window) == 10 for m in map(group.monitor, "ab"))

    def test_group_without_guard_rejects_guarded_update(self):
        group = MultiQueryGroup()
        group.add("a", AG2Monitor(10, 10, CountWindow(30)))
        with pytest.raises(InvalidParameterError):
            group.update_guarded([obj(1.0)])
