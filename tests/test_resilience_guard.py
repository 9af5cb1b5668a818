"""Ingest boundary tests: policies, dead-letter queue, reorder buffer.

The guard's contract: whatever garbage arrives, what comes out is a
sequence of valid objects in non-decreasing timestamp order, and every
record that went in is accounted for (admitted, rejected, or pending).
"""

from __future__ import annotations

import collections
import types

import pytest

from conftest import guarded_batches, make_objects
from repro.core.ag2 import AG2Monitor
from repro.core.objects import SpatialObject
from repro.engine import StreamEngine
from repro.errors import InvalidParameterError, QuarantineError
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
            {"x": 0.0, "y": 0.0, "timestamp": float("nan")},
        ],
    )
    def test_bad_payloads_raise(self, payload):
        with pytest.raises((InvalidParameterError, ValueError, TypeError)):
            coerce_record(payload)

    def test_every_mapping_shape_reads_the_same_fields(self):
        fields = {"x": 1, "y": 2, "weight": 3, "timestamp": 4, "oid": 9}
        shapes = [
            fields,
            collections.OrderedDict(fields),
            types.MappingProxyType(fields),
        ]
        for shape in shapes:
            got = coerce_record(shape)
            assert (got.x, got.y, got.weight, got.timestamp, got.oid) == (
                1.0, 2.0, 3.0, 4.0, 9,
            )
        bare = coerce_record(types.MappingProxyType({"x": 1, "y": 2}))
        assert (bare.weight, bare.timestamp) == (1.0, 0.0)
        # a defaultdict lacking y is refused, not handed a default y
        with pytest.raises(ValueError, match="missing x/y"):
            coerce_record(collections.defaultdict(float, {"x": 1.0}))

    def test_five_field_sequence_carries_its_oid(self):
        from_seq = coerce_record((1, 2, 3, 4, 77))
        assert from_seq.oid == 77
        assert (from_seq.x, from_seq.timestamp) == (1.0, 4.0)
        assert coerce_record([1, 2, 3, 4, 5.0]).oid == 5

    @pytest.mark.parametrize(
        "payload",
        [
            {"x": 1, "y": 2, "oid": 3.7},
            {"x": 1, "y": 2, "oid": float("nan")},
            (1, 2, 3, 4, 3.7),
        ],
    )
    def test_non_integral_oid_rejected(self, payload):
        with pytest.raises(ValueError):
            coerce_record(payload)
        assert coerce_record({"x": 1, "y": 2, "oid": 3.0}).oid == 3
        assert coerce_record({"x": 1, "y": 2, "oid": "3"}).oid == 3

    @pytest.mark.parametrize(
        "payload",
        [
            {"x": 1, "y": 2, "oid": 3.7},
            {"x": 1, "y": 2, "oid": float("inf")},  # OverflowError
            {"x": 10**400, "y": 2},  # OverflowError
        ],
    )
    def test_guard_quarantines_what_coercion_refuses(self, payload):
        guard = IngestGuard()
        assert guard.filter([payload]) == []
        assert guard.quarantined == 1
        assert [d.reason for d in guard.dead_letters] == ["invalid"]

    def test_forged_nan_timestamp_rejected(self):
        forged = object.__new__(SpatialObject)
        for name, value in zip(
            ("x", "y", "weight", "timestamp", "oid"),
            (1.0, 2.0, 1.0, float("nan"), 7),
        ):
            object.__setattr__(forged, name, value)
        with pytest.raises(ValueError, match="forged"):
            coerce_record(forged)


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
        """The drain's return value counts what reached the disk."""
        q = DeadLetterQueue(capacity=8)
        for letter in self._letters(4):
            q.put(letter)
        path = tmp_path / "dead.jsonl"
        assert q.drain_to_jsonl(path) == 4
        assert len(q) == 0
        assert len(path.read_text().splitlines()) == 4
        assert q.total_enqueued == 4


def offer(buf: ReorderBuffer, o: SpatialObject) -> list[SpatialObject] | None:
    """One record through the buffer: ``accept``, then ``release``.
    ``None`` when the record is later than the bound allows."""
    out: list[SpatialObject] = []
    if buf.accept(o, out) is None:
        return None
    return out + buf.release()


class TestReorderBuffer:
    def test_in_order_stream_flows_through(self):
        buf = ReorderBuffer(max_lateness=0.0)
        out = []
        for t in range(5):
            out.extend(offer(buf, obj(float(t))))
        assert [o.timestamp for o in out] == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert buf.reordered == 0 and buf.pending == 0

    def test_bounded_lateness_resequenced(self):
        buf = ReorderBuffer(max_lateness=5.0)
        emitted = []
        for t in [1.0, 2.0, 4.0, 3.0, 8.0, 9.0, 10.0]:
            out = offer(buf, obj(t))
            assert out is not None
            emitted.extend(out)
        emitted.extend(buf.flush())
        stamps = [o.timestamp for o in emitted]
        assert stamps == sorted(stamps)
        assert set(stamps) == {1.0, 2.0, 3.0, 4.0, 8.0, 9.0, 10.0}
        assert buf.reordered == 1

    def test_beyond_bound_is_rejected(self):
        buf = ReorderBuffer(max_lateness=1.0)
        offer(buf, obj(10.0))
        assert offer(buf, obj(8.0)) is None  # watermark is 9.0
        assert offer(buf, obj(9.5)) is not None

    def test_emitted_order_feeds_time_window(self):
        """The buffer's output satisfies TimeWindow's order contract."""
        buf = ReorderBuffer(max_lateness=4.0)
        window = TimeWindow(100.0)
        sequence = [1.0, 3.0, 2.0, 5.0, 4.0, 9.0, 7.0, 12.0, 11.0, 15.0]
        for t in sequence:
            released = offer(buf, obj(t))
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
            emitted.extend(offer(buf, obj(5.0, x=float(i))))
        assert emitted == []  # watermark 3.0 — all three held back
        assert buf.pending == 3
        # advancing the watermark past 5.0 releases the whole tie group
        emitted.extend(offer(buf, obj(8.0, x=99.0)))
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
        assert offer(buf, obj(10.0, x=0.0)) is not None  # watermark -> 8.0
        # timestamp == watermark is on time (strict < classifies late)
        first = offer(buf, obj(8.0, x=1.0))
        assert [o.x for o in first] == [1.0]
        # a second identical stamp after its twin was already released
        # must come out again (once), not be deduplicated or dropped
        second = offer(buf, obj(8.0, x=2.0))
        assert [o.x for o in second] == [2.0]
        # below the watermark the tie rule no longer applies: too late
        assert offer(buf, obj(7.9, x=3.0)) is None
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
            assert offer(buf, obj(ts, x=x)) == []
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

    @pytest.mark.parametrize("max_lateness", [0.0, 2.0])
    def test_raise_keeps_admitted_objects_and_the_ledger(self, max_lateness):
        """Objects admitted ahead of the failing record ride on the
        error, and the failing record is counted as rejected."""
        guard = IngestGuard(policy="raise", max_lateness=max_lateness)
        o1, o2, o3 = obj(1.0), obj(2.0), obj(3.0)
        with pytest.raises(QuarantineError) as exc_info:
            guard.filter([o1, o2, "bad", o3])
        released = exc_info.value.released
        assert exc_info.value.record == "bad"
        assert guard.offered == 3 and guard.rejected == 1
        assert guard.offered == (
            guard.admitted + guard.rejected + guard.reorder.pending
        )
        # without lateness o1 and o2 are out; with it they wait for
        # the watermark (2.0 - 2.0 passes neither of them yet)
        assert released == ([o1, o2] if max_lateness == 0.0 else [])
        assert guard.admitted == len(released)
        # the guard goes on from where the raise left it
        rest = guard.filter([o3]) + guard.flush()
        assert released + rest == [o1, o2, o3]
        assert guard.offered == guard.admitted + guard.rejected == 4

    def test_raise_on_late_record_keeps_the_ledger(self):
        guard = IngestGuard(policy="raise", max_lateness=1.0)
        early, late = obj(10.0), obj(5.0)
        with pytest.raises(QuarantineError) as exc_info:
            guard.filter([obj(8.5), early, late])
        assert [o.timestamp for o in exc_info.value.released] == [8.5]
        assert guard.late_dropped == 1 and guard.quarantined == 0
        assert guard.offered == (
            guard.admitted + guard.rejected + guard.reorder.pending
        )

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

    def test_flush_at_end_releases_the_rest_in_order(self):
        source = [obj(1.0), obj(3.0), obj(2.0), "junk", obj(8.0)]
        guard = IngestGuard(policy="quarantine", max_lateness=5.0)
        out = guard.filter(source)
        assert guard.reorder.pending == 1  # 8.0 waits for the watermark
        out += guard.flush()
        assert [o.timestamp for o in out] == [1.0, 2.0, 3.0, 8.0]
        assert guard.quarantined == 1

    def test_metrics_counters_emitted(self):
        """Each rejection and re-sequencing counts in one attribute."""
        guard = IngestGuard(policy="quarantine", max_lateness=2.0)
        guard.filter([obj(5.0), "bad", obj(4.0), obj(0.5)])
        assert guard.quarantined == 1
        assert guard.late_reordered == 1
        assert guard.late_dropped == 1
        assert guard.dead_letters.total_enqueued == 2  # invalid + late
        assert len(guard.dead_letters) == 2
        assert guard.reorder.pending == 2

    @pytest.mark.parametrize("max_lateness", [2.0, 0.0])
    def test_nan_timestamp_is_quarantined_not_buffered(self, max_lateness):
        """A NaN timestamp compares false against every watermark; had
        it reached the reorder buffer it would sit at the heap top
        forever and hold back every later record."""
        stamps = [0.0, 1.0, float("nan")] + [float(t) for t in range(2, 200)]
        guard = IngestGuard(policy="quarantine", max_lateness=max_lateness)
        admitted = guard.filter(
            [{"x": 1.0, "y": 1.0, "timestamp": t} for t in stamps]
        )
        admitted += guard.flush()
        assert [o.timestamp for o in admitted] == [float(t) for t in range(200)]
        assert guard.quarantined == 1
        assert guard.dead_letters.counts_by_reason() == {"invalid": 1}
        assert guard.reorder.pending == 0


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
        guard = IngestGuard(policy="quarantine")
        survivors = guard.filter(chaos) + guard.flush()
        assert chaos.corrupted > 0
        assert guard.quarantined == chaos.corrupted
        assert guard.dead_letters.total_enqueued == chaos.corrupted
        assert len(survivors) == len(objects) - chaos.corrupted

    def test_skip_policy_keeps_dlq_empty(self):
        objects = make_objects(500, seed=12, domain=60.0)
        chaos = FaultInjectingSource(
            ReplayStream(objects), seed=15, p_corrupt=0.05
        )
        guard = IngestGuard(policy="skip")
        survivors = guard.filter(chaos) + guard.flush()
        assert chaos.corrupted > 0
        assert guard.skipped == chaos.corrupted
        assert guard.quarantined == 0
        assert guard.dead_letters.total_enqueued == 0
        assert len(survivors) == len(objects) - chaos.corrupted


class TestEngineAndGroupWiring:
    def test_guard_ahead_of_the_engine_counts_in_its_attributes(self):
        """Records pushed through the guard and on into the engine: the
        guard counts its rejections, the engine applies what it admits."""
        objects = make_objects(200, seed=5, domain=60.0)
        records: list[object] = list(objects)
        records.insert(10, {"x": float("nan"), "y": 1.0})
        guard = IngestGuard(policy="quarantine")
        monitor = AG2Monitor(10, 10, CountWindow(50))
        engine = StreamEngine({"ag2": monitor}, [], batch_size=20)
        for batch in guarded_batches(guard, records, 10, 20):
            engine.process(batch)
        assert guard.quarantined == 1
        assert engine.batches == 10
        assert monitor.stats.objects_seen == 200
